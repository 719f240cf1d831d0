type error = { message : string; offset : int }

let pp_error ppf e =
  Format.fprintf ppf "OWL functional syntax error at offset %d: %s" e.offset
    e.message

exception Err of string * int

(* ------------------------------------------------------------------ *)
(* Lexer *)

type token =
  | LPAREN
  | RPAREN
  | NAME of string       (* possibly prefixed: A, :A, xsd:integer *)
  | LITERAL of string * string option  (* lexical form, datatype name *)
  | INT of int
  | EOF

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '.' || c = ':'
  (* the transformation's decorated names (A+, A-, R=) stay parseable *)
  || c = '+' || c = '='

let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let emit t pos = toks := (t, pos) :: !toks in
  while !i < n do
    let start = !i in
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '#' then
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    else if c = '(' then (emit LPAREN start; incr i)
    else if c = ')' then (emit RPAREN start; incr i)
    else if c = '<' then begin
      (* full IRI: keep the fragment (after # or the last /) *)
      let j = ref (!i + 1) in
      while !j < n && src.[!j] <> '>' do
        incr j
      done;
      if !j >= n then raise (Err ("unterminated IRI", start));
      let iri = String.sub src (!i + 1) (!j - !i - 1) in
      let frag =
        match String.rindex_opt iri '#' with
        | Some k -> String.sub iri (k + 1) (String.length iri - k - 1)
        | None -> (
            match String.rindex_opt iri '/' with
            | Some k -> String.sub iri (k + 1) (String.length iri - k - 1)
            | None -> iri)
      in
      emit (NAME frag) start;
      i := !j + 1
    end
    else if c = '"' then begin
      let buf = Buffer.create 16 in
      let j = ref (!i + 1) in
      let closed = ref false in
      while (not !closed) && !j < n do
        (match src.[!j] with
        | '"' -> closed := true
        | '\\' when !j + 1 < n ->
            incr j;
            Buffer.add_char buf src.[!j]
        | ch -> Buffer.add_char buf ch);
        incr j
      done;
      if not !closed then raise (Err ("unterminated literal", start));
      (* optional ^^datatype *)
      let dt =
        if !j + 1 < n && src.[!j] = '^' && src.[!j + 1] = '^' then begin
          let k = ref (!j + 2) in
          let s = !k in
          while !k < n && is_name_char src.[!k] do
            incr k
          done;
          let name = String.sub src s (!k - s) in
          j := !k;
          Some name
        end
        else None
      in
      emit (LITERAL (Buffer.contents buf, dt)) start;
      i := !j
    end
    else if is_digit c then begin
      let j = ref !i in
      while !j < n && is_digit src.[!j] do
        incr j
      done;
      emit (INT (int_of_string (String.sub src !i (!j - !i)))) start;
      i := !j
    end
    else if is_name_char c then begin
      let j = ref !i in
      while !j < n && is_name_char src.[!j] do
        incr j
      done;
      emit (NAME (String.sub src !i (!j - !i))) start;
      i := !j
    end
    else raise (Err (Printf.sprintf "unexpected character %C" c, start))
  done;
  emit EOF n;
  Array.of_list (List.rev !toks)

(* ------------------------------------------------------------------ *)
(* Parser *)

type stream = { toks : (token * int) array; mutable pos : int }

let peek s = fst s.toks.(s.pos)
let offset s = snd s.toks.(s.pos)
let advance s = s.pos <- s.pos + 1
let fail s msg = raise (Err (msg, offset s))

let expect s tok what =
  if peek s = tok then advance s else fail s ("expected " ^ what)

(* strip a single leading ':' from default-prefix names *)
let entity name =
  if String.length name > 1 && name.[0] = ':' then
    String.sub name 1 (String.length name - 1)
  else name

let name s =
  match peek s with
  | NAME x ->
      advance s;
      entity x
  | _ -> fail s "expected a name"

let parse_literal s : Datatype.value =
  match peek s with
  | LITERAL (lex, dt) -> (
      advance s;
      match dt with
      | Some "xsd:integer" | Some "xsd:int" -> (
          match int_of_string_opt lex with
          | Some v -> Datatype.Int v
          | None -> fail s "malformed integer literal")
      | Some "xsd:boolean" -> (
          match bool_of_string_opt lex with
          | Some b -> Datatype.Bool b
          | None -> fail s "malformed boolean literal")
      | Some "xsd:string" | None -> Datatype.Str lex
      | Some other -> fail s ("unsupported literal datatype " ^ other))
  | INT v ->
      advance s;
      Datatype.Int v
  | _ -> fail s "expected a literal"

let rec parse_object_property s : Role.t =
  match peek s with
  | NAME "ObjectInverseOf" ->
      advance s;
      expect s LPAREN "'('";
      let r = parse_object_property s in
      expect s RPAREN "')'";
      Role.inv r
  | NAME x ->
      advance s;
      Role.Name (entity x)
  | _ -> fail s "expected an object property"

let rec parse_data_range s : Datatype.t =
  match peek s with
  | NAME "xsd:integer" | NAME "xsd:int" ->
      advance s;
      Datatype.Int_type
  | NAME "xsd:string" ->
      advance s;
      Datatype.String_type
  | NAME "xsd:boolean" ->
      advance s;
      Datatype.Bool_type
  | NAME "rdfs:Literal" ->
      advance s;
      Datatype.Top_data
  | NAME "DataOneOf" ->
      advance s;
      expect s LPAREN "'('";
      let vs = ref [] in
      while peek s <> RPAREN do
        vs := parse_literal s :: !vs
      done;
      expect s RPAREN "')'";
      Datatype.One_of (List.rev !vs)
  | NAME "DataComplementOf" ->
      advance s;
      expect s LPAREN "'('";
      let d = parse_data_range s in
      expect s RPAREN "')'";
      Datatype.Complement d
  | NAME "DatatypeRestriction" ->
      advance s;
      expect s LPAREN "'('";
      (match peek s with
      | NAME ("xsd:integer" | "xsd:int") -> advance s
      | _ -> fail s "DatatypeRestriction supports only xsd:integer");
      let lo = ref None and hi = ref None in
      while peek s <> RPAREN do
        let facet = name s in
        let v = parse_literal s in
        match (facet, v) with
        | "xsd:minInclusive", Datatype.Int v -> lo := Some v
        | "xsd:maxInclusive", Datatype.Int v -> hi := Some v
        | "xsd:minExclusive", Datatype.Int v -> lo := Some (v + 1)
        | "xsd:maxExclusive", Datatype.Int v -> hi := Some (v - 1)
        | _ -> fail s ("unsupported facet " ^ facet)
      done;
      expect s RPAREN "')'";
      Datatype.Int_range (!lo, !hi)
  | _ -> fail s "expected a data range"

let parse_cardinality s =
  match peek s with
  | INT k when k >= 0 ->
      advance s;
      k
  | _ -> fail s "expected a cardinality"

let rec parse_class s : Concept.t =
  match peek s with
  | NAME "owl:Thing" ->
      advance s;
      Concept.Top
  | NAME "owl:Nothing" ->
      advance s;
      Concept.Bottom
  | NAME "ObjectIntersectionOf" ->
      advance s;
      Concept.conj (parse_class_list s)
  | NAME "ObjectUnionOf" ->
      advance s;
      Concept.disj (parse_class_list s)
  | NAME "ObjectComplementOf" ->
      advance s;
      expect s LPAREN "'('";
      let c = parse_class s in
      expect s RPAREN "')'";
      Concept.neg c
  | NAME "ObjectOneOf" ->
      advance s;
      expect s LPAREN "'('";
      let os = ref [] in
      while peek s <> RPAREN do
        os := name s :: !os
      done;
      expect s RPAREN "')'";
      Concept.One_of (List.rev !os)
  | NAME "ObjectSomeValuesFrom" ->
      advance s;
      expect s LPAREN "'('";
      let r = parse_object_property s in
      let c = parse_class s in
      expect s RPAREN "')'";
      Concept.Exists (r, c)
  | NAME "ObjectAllValuesFrom" ->
      advance s;
      expect s LPAREN "'('";
      let r = parse_object_property s in
      let c = parse_class s in
      expect s RPAREN "')'";
      Concept.Forall (r, c)
  | NAME "ObjectHasValue" ->
      advance s;
      expect s LPAREN "'('";
      let r = parse_object_property s in
      let a = name s in
      expect s RPAREN "')'";
      Concept.Exists (r, Concept.One_of [ a ])
  | NAME "ObjectMinCardinality" ->
      advance s;
      expect s LPAREN "'('";
      let k = parse_cardinality s in
      let r = parse_object_property s in
      expect s RPAREN "')'";
      Concept.At_least (k, r)
  | NAME "ObjectMaxCardinality" ->
      advance s;
      expect s LPAREN "'('";
      let k = parse_cardinality s in
      let r = parse_object_property s in
      expect s RPAREN "')'";
      Concept.At_most (k, r)
  | NAME "ObjectExactCardinality" ->
      advance s;
      expect s LPAREN "'('";
      let k = parse_cardinality s in
      let r = parse_object_property s in
      expect s RPAREN "')'";
      Concept.And (Concept.At_least (k, r), Concept.At_most (k, r))
  | NAME "DataSomeValuesFrom" ->
      advance s;
      expect s LPAREN "'('";
      let u = name s in
      let d = parse_data_range s in
      expect s RPAREN "')'";
      Concept.Data_exists (u, d)
  | NAME "DataAllValuesFrom" ->
      advance s;
      expect s LPAREN "'('";
      let u = name s in
      let d = parse_data_range s in
      expect s RPAREN "')'";
      Concept.Data_forall (u, d)
  | NAME "DataMinCardinality" ->
      advance s;
      expect s LPAREN "'('";
      let k = parse_cardinality s in
      let u = name s in
      expect s RPAREN "')'";
      Concept.Data_at_least (k, u)
  | NAME "DataMaxCardinality" ->
      advance s;
      expect s LPAREN "'('";
      let k = parse_cardinality s in
      let u = name s in
      expect s RPAREN "')'";
      Concept.Data_at_most (k, u)
  | NAME x ->
      advance s;
      Concept.Atom (entity x)
  | _ -> fail s "expected a class expression"

and parse_class_list s =
  expect s LPAREN "'('";
  let cs = ref [] in
  while peek s <> RPAREN do
    cs := parse_class s :: !cs
  done;
  expect s RPAREN "')'";
  List.rev !cs

(* An axiom, or [None] for accepted-and-ignored statements. *)
let parse_axiom s : (Axiom.tbox_axiom list, Axiom.abox_axiom list) Either.t option =
  let tbox axs = Some (Either.Left axs) in
  let abox axs = Some (Either.Right axs) in
  match peek s with
  | NAME "Declaration" | NAME "Import" | NAME "Annotation"
  | NAME "AnnotationAssertion" ->
      advance s;
      (* skip the balanced parenthesis group *)
      expect s LPAREN "'('";
      let depth = ref 1 in
      while !depth > 0 do
        (match peek s with
        | LPAREN -> incr depth
        | RPAREN -> decr depth
        | EOF -> fail s "unbalanced parentheses"
        | _ -> ());
        advance s
      done;
      None
  | NAME "SubClassOf" ->
      advance s;
      expect s LPAREN "'('";
      let c = parse_class s in
      let d = parse_class s in
      expect s RPAREN "')'";
      tbox [ Axiom.Concept_sub (c, d) ]
  | NAME "EquivalentClasses" ->
      advance s;
      let cs = parse_class_list s in
      let rec pairs = function
        | a :: (b :: _ as rest) ->
            Axiom.Concept_sub (a, b) :: Axiom.Concept_sub (b, a) :: pairs rest
        | _ -> []
      in
      tbox (pairs cs)
  | NAME "DisjointClasses" ->
      advance s;
      let cs = parse_class_list s in
      let rec pairs = function
        | a :: rest ->
            List.map (fun b -> Axiom.Concept_sub (a, Concept.neg b)) rest
            @ pairs rest
        | [] -> []
      in
      tbox (pairs cs)
  | NAME "SubObjectPropertyOf" ->
      advance s;
      expect s LPAREN "'('";
      let r = parse_object_property s in
      let r' = parse_object_property s in
      expect s RPAREN "')'";
      tbox [ Axiom.Role_sub (r, r') ]
  | NAME "TransitiveObjectProperty" ->
      advance s;
      expect s LPAREN "'('";
      let r = parse_object_property s in
      expect s RPAREN "')'";
      (match r with
      | Role.Name base | Role.Inv base -> tbox [ Axiom.Transitive base ])
  | NAME "SubDataPropertyOf" ->
      advance s;
      expect s LPAREN "'('";
      let u = name s in
      let v = name s in
      expect s RPAREN "')'";
      tbox [ Axiom.Data_role_sub (u, v) ]
  | NAME "ClassAssertion" ->
      advance s;
      expect s LPAREN "'('";
      let c = parse_class s in
      let a = name s in
      expect s RPAREN "')'";
      abox [ Axiom.Instance_of (a, c) ]
  | NAME "ObjectPropertyAssertion" ->
      advance s;
      expect s LPAREN "'('";
      let r = parse_object_property s in
      let a = name s in
      let b = name s in
      expect s RPAREN "')'";
      abox [ Axiom.Role_assertion (a, r, b) ]
  | NAME "NegativeObjectPropertyAssertion" ->
      advance s;
      expect s LPAREN "'('";
      let r = parse_object_property s in
      let a = name s in
      let b = name s in
      expect s RPAREN "')'";
      abox
        [ Axiom.Instance_of
            (a, Concept.Forall (r, Concept.Not (Concept.One_of [ b ]))) ]
  | NAME "DataPropertyAssertion" ->
      advance s;
      expect s LPAREN "'('";
      let u = name s in
      let a = name s in
      let v = parse_literal s in
      expect s RPAREN "')'";
      abox [ Axiom.Data_assertion (a, u, v) ]
  | NAME "SameIndividual" ->
      advance s;
      expect s LPAREN "'('";
      let a = name s in
      let rest = ref [] in
      while peek s <> RPAREN do
        rest := name s :: !rest
      done;
      expect s RPAREN "')'";
      abox (List.map (fun b -> Axiom.Same (a, b)) (List.rev !rest))
  | NAME "DifferentIndividuals" ->
      advance s;
      expect s LPAREN "'('";
      let inds = ref [] in
      while peek s <> RPAREN do
        inds := name s :: !inds
      done;
      expect s RPAREN "')'";
      let rec pairs = function
        | a :: rest -> List.map (fun b -> Axiom.Different (a, b)) rest @ pairs rest
        | [] -> []
      in
      abox (pairs (List.rev !inds))
  | _ -> fail s "expected an axiom"

let parse_document s =
  (* optional Prefix declarations *)
  while peek s = NAME "Prefix" do
    advance s;
    expect s LPAREN "'('";
    let depth = ref 1 in
    while !depth > 0 do
      (match peek s with
      | LPAREN -> incr depth
      | RPAREN -> decr depth
      | EOF -> fail s "unbalanced parentheses"
      | _ -> ());
      advance s
    done
  done;
  let wrapped = peek s = NAME "Ontology" in
  if wrapped then begin
    advance s;
    expect s LPAREN "'('";
    (* optional ontology IRI(s) *)
    while (match peek s with NAME x when x <> "" -> not (String.contains x '(') | _ -> false)
          && s.toks.(s.pos + 1) |> fst <> LPAREN do
      advance s
    done
  end;
  (* newest first; each list is reversed once at the end *)
  let tbox = ref [] and abox = ref [] in
  let stop () = if wrapped then peek s = RPAREN else peek s = EOF in
  while not (stop ()) do
    match parse_axiom s with
    | None -> ()
    | Some (Either.Left axs) -> tbox := List.rev_append axs !tbox
    | Some (Either.Right axs) -> abox := List.rev_append axs !abox
  done;
  if wrapped then expect s RPAREN "')'";
  Axiom.make ~tbox:(List.rev !tbox) ~abox:(List.rev !abox)

let parse_ontology src =
  match
    let s = { toks = tokenize src; pos = 0 } in
    parse_document s
  with
  | kb -> Ok kb
  | exception Err (message, offset) -> Error { message; offset }

let parse_ontology_exn src =
  match parse_ontology src with
  | Ok kb -> kb
  | Error e -> failwith (Format.asprintf "%a" pp_error e)

(* ------------------------------------------------------------------ *)
(* Writer *)

let buf_add = Buffer.add_string

let write_role b = function
  | Role.Name r -> buf_add b (":" ^ r)
  | Role.Inv r -> buf_add b (Printf.sprintf "ObjectInverseOf(:%s)" r)

let write_literal b = function
  | Datatype.Int v -> buf_add b (Printf.sprintf "\"%d\"^^xsd:integer" v)
  | Datatype.Str v -> buf_add b (Printf.sprintf "%S" v)
  | Datatype.Bool v -> buf_add b (Printf.sprintf "\"%b\"^^xsd:boolean" v)

let rec write_data_range b = function
  | Datatype.Int_type -> buf_add b "xsd:integer"
  | Datatype.String_type -> buf_add b "xsd:string"
  | Datatype.Bool_type -> buf_add b "xsd:boolean"
  | Datatype.Top_data -> buf_add b "rdfs:Literal"
  | Datatype.Bottom_data -> buf_add b "DataComplementOf(rdfs:Literal)"
  | Datatype.One_of vs ->
      buf_add b "DataOneOf(";
      List.iteri
        (fun i v ->
          if i > 0 then buf_add b " ";
          write_literal b v)
        vs;
      buf_add b ")"
  | Datatype.Complement d ->
      buf_add b "DataComplementOf(";
      write_data_range b d;
      buf_add b ")"
  | Datatype.Int_range (lo, hi) ->
      buf_add b "DatatypeRestriction(xsd:integer";
      (match lo with
      | Some v -> buf_add b (Printf.sprintf " xsd:minInclusive \"%d\"^^xsd:integer" v)
      | None -> ());
      (match hi with
      | Some v -> buf_add b (Printf.sprintf " xsd:maxInclusive \"%d\"^^xsd:integer" v)
      | None -> ());
      buf_add b ")"

let rec write_class b (c : Concept.t) =
  let nary keyword cs =
    buf_add b keyword;
    buf_add b "(";
    List.iteri
      (fun i c ->
        if i > 0 then buf_add b " ";
        write_class b c)
      cs;
    buf_add b ")"
  in
  match c with
  | Top -> buf_add b "owl:Thing"
  | Bottom -> buf_add b "owl:Nothing"
  | Atom a -> buf_add b (":" ^ a)
  | Not c ->
      buf_add b "ObjectComplementOf(";
      write_class b c;
      buf_add b ")"
  | And _ ->
      let rec conjuncts (c : Concept.t) =
        match c with And (a, b) -> conjuncts a @ conjuncts b | c -> [ c ]
      in
      nary "ObjectIntersectionOf" (conjuncts c)
  | Or _ ->
      let rec disjuncts (c : Concept.t) =
        match c with Or (a, b) -> disjuncts a @ disjuncts b | c -> [ c ]
      in
      nary "ObjectUnionOf" (disjuncts c)
  | One_of os ->
      buf_add b "ObjectOneOf(";
      List.iteri
        (fun i o ->
          if i > 0 then buf_add b " ";
          buf_add b (":" ^ o))
        os;
      buf_add b ")"
  | Exists (r, c) ->
      buf_add b "ObjectSomeValuesFrom(";
      write_role b r;
      buf_add b " ";
      write_class b c;
      buf_add b ")"
  | Forall (r, c) ->
      buf_add b "ObjectAllValuesFrom(";
      write_role b r;
      buf_add b " ";
      write_class b c;
      buf_add b ")"
  | At_least (k, r) ->
      buf_add b (Printf.sprintf "ObjectMinCardinality(%d " k);
      write_role b r;
      buf_add b ")"
  | At_most (k, r) ->
      buf_add b (Printf.sprintf "ObjectMaxCardinality(%d " k);
      write_role b r;
      buf_add b ")"
  | Data_exists (u, d) ->
      buf_add b (Printf.sprintf "DataSomeValuesFrom(:%s " u);
      write_data_range b d;
      buf_add b ")"
  | Data_forall (u, d) ->
      buf_add b (Printf.sprintf "DataAllValuesFrom(:%s " u);
      write_data_range b d;
      buf_add b ")"
  | Data_at_least (k, u) ->
      buf_add b (Printf.sprintf "DataMinCardinality(%d :%s)" k u)
  | Data_at_most (k, u) ->
      buf_add b (Printf.sprintf "DataMaxCardinality(%d :%s)" k u)

let to_functional ?(ontology_iri = "http://example.org/ontology") (kb : Axiom.kb)
    =
  let b = Buffer.create 1024 in
  buf_add b (Printf.sprintf "Ontology(<%s>\n" ontology_iri);
  List.iter
    (fun ax ->
      buf_add b "  ";
      (match (ax : Axiom.tbox_axiom) with
      | Concept_sub (c, d) ->
          buf_add b "SubClassOf(";
          write_class b c;
          buf_add b " ";
          write_class b d;
          buf_add b ")"
      | Role_sub (r, r') ->
          buf_add b "SubObjectPropertyOf(";
          write_role b r;
          buf_add b " ";
          write_role b r';
          buf_add b ")"
      | Data_role_sub (u, v) ->
          buf_add b (Printf.sprintf "SubDataPropertyOf(:%s :%s)" u v)
      | Transitive r ->
          buf_add b (Printf.sprintf "TransitiveObjectProperty(:%s)" r));
      buf_add b "\n")
    kb.tbox;
  List.iter
    (fun ax ->
      buf_add b "  ";
      (match (ax : Axiom.abox_axiom) with
      | Instance_of (a, c) ->
          buf_add b "ClassAssertion(";
          write_class b c;
          buf_add b (Printf.sprintf " :%s)" a)
      | Role_assertion (a, r, b') ->
          buf_add b "ObjectPropertyAssertion(";
          write_role b r;
          buf_add b (Printf.sprintf " :%s :%s)" a b')
      | Data_assertion (a, u, v) ->
          buf_add b (Printf.sprintf "DataPropertyAssertion(:%s :%s " u a);
          write_literal b v;
          buf_add b ")"
      | Same (a, b') -> buf_add b (Printf.sprintf "SameIndividual(:%s :%s)" a b')
      | Different (a, b') ->
          buf_add b (Printf.sprintf "DifferentIndividuals(:%s :%s)" a b'));
      buf_add b "\n")
    kb.abox;
  buf_add b ")\n";
  Buffer.contents b
