open Surface_lexer

type error = { message : string; offset : int }

let pp_error ppf e =
  Format.fprintf ppf "parse error at offset %d: %s" e.offset e.message

exception Parse_error of string * int

type mode = Four_valued | Classical

type stream = { toks : (token * int) array; mutable pos : int }

let peek s = fst s.toks.(s.pos)
let peek2 s = if s.pos + 1 < Array.length s.toks then fst s.toks.(s.pos + 1) else EOF
let offset s = snd s.toks.(s.pos)
let advance s = s.pos <- s.pos + 1

let fail s msg = raise (Parse_error (msg, offset s))

let expect s tok what =
  if peek s = tok then advance s
  else
    fail s
      (Format.asprintf "expected %s but found %a" what pp_token (peek s))

let ident s =
  match peek s with
  | IDENT x ->
      advance s;
      x
  | t -> fail s (Format.asprintf "expected an identifier, found %a" pp_token t)

let parse_role s =
  let name = ident s in
  if peek s = INVSUF then begin
    advance s;
    Role.Inv name
  end
  else Role.Name name

let parse_value s =
  match peek s with
  | INT n ->
      advance s;
      Datatype.Int n
  | STRING str ->
      advance s;
      Datatype.Str str
  | KW_TRUE ->
      advance s;
      Datatype.Bool true
  | KW_FALSE ->
      advance s;
      Datatype.Bool false
  | t -> fail s (Format.asprintf "expected a data value, found %a" pp_token t)

let parse_bound s =
  match peek s with
  | STAR ->
      advance s;
      None
  | INT n ->
      advance s;
      Some n
  | t -> fail s (Format.asprintf "expected an integer or '*', found %a" pp_token t)

let rec parse_datatype s : Datatype.t =
  match peek s with
  | KW_INTEGER ->
      advance s;
      Datatype.Int_type
  | KW_STRING ->
      advance s;
      Datatype.String_type
  | KW_BOOLEAN ->
      advance s;
      Datatype.Bool_type
  | KW_ANYVALUE ->
      advance s;
      Datatype.Top_data
  | KW_NOVALUE ->
      advance s;
      Datatype.Bottom_data
  | KW_INT ->
      advance s;
      expect s LBRACKET "'['";
      let lo = parse_bound s in
      expect s DOTDOT "'..'";
      let hi = parse_bound s in
      expect s RBRACKET "']'";
      Datatype.Int_range (lo, hi)
  | LBRACE ->
      advance s;
      let rec values acc =
        let v = parse_value s in
        if peek s = COMMA then begin
          advance s;
          values (v :: acc)
        end
        else List.rev (v :: acc)
      in
      let vs = if peek s = RBRACE then [] else values [] in
      expect s RBRACE "'}'";
      Datatype.One_of vs
  | KW_NOT ->
      advance s;
      expect s LPAREN "'('";
      let d = parse_datatype s in
      expect s RPAREN "')'";
      Datatype.Complement d
  | t -> fail s (Format.asprintf "expected a datatype, found %a" pp_token t)

(* Quantifier body after 'some'/'only': either an object role followed by
   '.' and a concept, or a data role followed by ':' and a datatype. *)
let rec parse_quantified s ~exists =
  let name = ident s in
  match peek s with
  | COLON ->
      advance s;
      let d = parse_datatype s in
      if exists then Concept.Data_exists (name, d)
      else Concept.Data_forall (name, d)
  | INVSUF | DOT ->
      let role =
        if peek s = INVSUF then begin
          advance s;
          Role.Inv name
        end
        else Role.Name name
      in
      expect s DOT "'.'";
      let c = parse_unary s in
      if exists then Concept.Exists (role, c) else Concept.Forall (role, c)
  | t ->
      fail s (Format.asprintf "expected '.', ':' or '^-' after role, found %a" pp_token t)

and parse_counting s ~at_least =
  let n =
    match peek s with
    | INT n when n >= 0 ->
        advance s;
        n
    | t -> fail s (Format.asprintf "expected a cardinality, found %a" pp_token t)
  in
  match peek s with
  | KW_DATA ->
      advance s;
      let u = ident s in
      if at_least then Concept.Data_at_least (n, u) else Concept.Data_at_most (n, u)
  | _ ->
      let r = parse_role s in
      if at_least then Concept.At_least (n, r) else Concept.At_most (n, r)

and parse_unary s : Concept.t =
  match peek s with
  | TILDE ->
      advance s;
      Concept.Not (parse_unary s)
  | KW_TOP ->
      advance s;
      Concept.Top
  | KW_BOTTOM ->
      advance s;
      Concept.Bottom
  | KW_SOME ->
      advance s;
      parse_quantified s ~exists:true
  | KW_ONLY ->
      advance s;
      parse_quantified s ~exists:false
  | GEQ ->
      advance s;
      parse_counting s ~at_least:true
  | LEQ ->
      advance s;
      parse_counting s ~at_least:false
  | LBRACE ->
      advance s;
      let rec individuals acc =
        let o = ident s in
        if peek s = COMMA then begin
          advance s;
          individuals (o :: acc)
        end
        else List.rev (o :: acc)
      in
      let os = individuals [] in
      expect s RBRACE "'}'";
      Concept.One_of os
  | LPAREN ->
      advance s;
      let c = parse_concept_expr s in
      expect s RPAREN "')'";
      c
  | IDENT a ->
      advance s;
      Concept.Atom a
  | t -> fail s (Format.asprintf "expected a concept, found %a" pp_token t)

and parse_conj s =
  let c = parse_unary s in
  if peek s = AMP then begin
    advance s;
    let rec go acc =
      let d = parse_unary s in
      let acc = Concept.And (acc, d) in
      if peek s = AMP then begin
        advance s;
        go acc
      end
      else acc
    in
    go c
  end
  else c

and parse_concept_expr s =
  let c = parse_conj s in
  if peek s = PIPE then begin
    advance s;
    let rec go acc =
      let d = parse_conj s in
      let acc = Concept.Or (acc, d) in
      if peek s = PIPE then begin
        advance s;
        go acc
      end
      else acc
    in
    go c
  end
  else c

(* ------------------------------------------------------------------ *)
(* Statements *)

type statement =
  | S_tbox4 of Kb4.tbox_axiom
  | S_tbox of Axiom.tbox_axiom
  | S_abox of Axiom.abox_axiom

let inclusion_kind s mode =
  match (mode, peek s) with
  | Four_valued, LT ->
      advance s;
      `Kind Kb4.Internal
  | Four_valued, MATERIAL ->
      advance s;
      `Kind Kb4.Material
  | Four_valued, STRONG ->
      advance s;
      `Kind Kb4.Strong
  | Classical, SUBSUMED ->
      advance s;
      `Classical
  | Four_valued, t ->
      fail s
        (Format.asprintf "expected an inclusion ('<', '|->', '->'), found %a"
           pp_token t)
  | Classical, t ->
      fail s (Format.asprintf "expected '<<', found %a" pp_token t)

let parse_statement s mode : statement =
  match (peek s, peek2 s) with
  | KW_TRANSITIVE, _ ->
      advance s;
      let r = ident s in
      expect s DOT "'.'";
      if mode = Classical then S_tbox (Axiom.Transitive r)
      else S_tbox4 (Kb4.Transitive r)
  | KW_ROLE, _ -> (
      advance s;
      let r1 = parse_role s in
      match inclusion_kind s mode with
      | `Kind k ->
          let r2 = parse_role s in
          expect s DOT "'.'";
          S_tbox4 (Kb4.Role_inclusion (k, r1, r2))
      | `Classical ->
          let r2 = parse_role s in
          expect s DOT "'.'";
          S_tbox (Axiom.Role_sub (r1, r2)))
  | KW_DATAROLE, _ -> (
      advance s;
      let u1 = ident s in
      match inclusion_kind s mode with
      | `Kind k ->
          let u2 = ident s in
          expect s DOT "'.'";
          S_tbox4 (Kb4.Data_role_inclusion (k, u1, u2))
      | `Classical ->
          let u2 = ident s in
          expect s DOT "'.'";
          S_tbox (Axiom.Data_role_sub (u1, u2)))
  | IDENT a, COLON ->
      advance s;
      advance s;
      let c = parse_concept_expr s in
      expect s DOT "'.'";
      S_abox (Axiom.Instance_of (a, c))
  | IDENT a, EQUALS ->
      advance s;
      advance s;
      let b = ident s in
      expect s DOT "'.'";
      S_abox (Axiom.Same (a, b))
  | IDENT a, NEQ ->
      advance s;
      advance s;
      let b = ident s in
      expect s DOT "'.'";
      S_abox (Axiom.Different (a, b))
  | IDENT name, LPAREN | IDENT name, INVSUF ->
      let r = parse_role s in
      expect s LPAREN "'('";
      let a = ident s in
      expect s COMMA "','";
      let ax =
        match peek s with
        | IDENT b ->
            advance s;
            Axiom.Role_assertion (a, r, b)
        | INT _ | STRING _ | KW_TRUE | KW_FALSE ->
            let v = parse_value s in
            if Role.is_inverse r then
              fail s "data roles have no inverses"
            else Axiom.Data_assertion (a, name, v)
        | t ->
            fail s
              (Format.asprintf "expected an individual or data value, found %a"
                 pp_token t)
      in
      expect s RPAREN "')'";
      expect s DOT "'.'";
      S_abox ax
  | _ -> (
      let c1 = parse_concept_expr s in
      match inclusion_kind s mode with
      | `Kind k ->
          let c2 = parse_concept_expr s in
          expect s DOT "'.'";
          S_tbox4 (Kb4.Concept_inclusion (k, c1, c2))
      | `Classical ->
          let c2 = parse_concept_expr s in
          expect s DOT "'.'";
          S_tbox (Axiom.Concept_sub (c1, c2)))

let parse_statements src mode =
  let s = { toks = tokenize src; pos = 0 } in
  let rec go acc =
    if peek s = EOF then List.rev acc else go (parse_statement s mode :: acc)
  in
  go []

let wrap f src =
  match f src with
  | v -> Ok v
  | exception Parse_error (message, offset) -> Error { message; offset }
  | exception Lex_error (message, offset) -> Error { message; offset }

(* One partition builds each list once, in statement order. *)
let parse_kb4 =
  wrap (fun src ->
      let tbox, abox =
        List.partition_map
          (function
            | S_tbox4 ax -> Either.Left ax
            | S_abox ax -> Either.Right ax
            | S_tbox _ -> assert false)
          (parse_statements src Four_valued)
      in
      Kb4.make ~tbox ~abox)

let parse_kb =
  wrap (fun src ->
      let tbox, abox =
        List.partition_map
          (function
            | S_tbox ax -> Either.Left ax
            | S_abox ax -> Either.Right ax
            | S_tbox4 _ -> assert false)
          (parse_statements src Classical)
      in
      Axiom.make ~tbox ~abox)

let parse_concept =
  wrap (fun src ->
      let s = { toks = tokenize src; pos = 0 } in
      let c = parse_concept_expr s in
      (match peek s with
      | EOF -> ()
      | DOT when peek2 s = EOF -> ()
      | t -> fail s (Format.asprintf "trailing input: %a" pp_token t));
      c)

let get_exn = function
  | Ok v -> v
  | Error e -> failwith (Format.asprintf "%a" pp_error e)

let parse_kb4_exn src = get_exn (parse_kb4 src)
let parse_kb_exn src = get_exn (parse_kb src)
let parse_concept_exn src = get_exn (parse_concept src)

let kb4_to_string kb = Format.asprintf "%a" Kb4.pp kb
let kb_to_string kb = Format.asprintf "%a" Axiom.pp kb
