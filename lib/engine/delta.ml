(* Typed knowledge-base deltas: add/retract ABox assertions, monotone TBox
   additions.  A delta is expressed in the user-level four-valued
   vocabulary; the oracle maps it through the axiom-local incremental path
   of the transform layer ([Transform.abox_delta]/[tbox_delta]) when
   applying it to the classical induced KB. *)

type t = {
  add_abox : Axiom.abox_axiom list;
  retract_abox : Axiom.abox_axiom list;
  add_tbox : Kb4.tbox_axiom list;
}

let empty = { add_abox = []; retract_abox = []; add_tbox = [] }

let is_empty d =
  d.add_abox = [] && d.retract_abox = [] && d.add_tbox = []

let touches_abox d = d.add_abox <> [] || d.retract_abox <> []

let apply_kb4 (kb : Kb4.t) d =
  { Kb4.tbox = kb.Kb4.tbox @ d.add_tbox;
    abox = Axiom.remove_each d.retract_abox kb.Kb4.abox @ d.add_abox }

(* ------------------------------------------------------------------ *)
(* Touched symbols *)

let abox_axiom_individuals (ax : Axiom.abox_axiom) =
  match ax with
  | Axiom.Instance_of (a, c) -> a :: Concept.individual_names c
  | Axiom.Role_assertion (a, _, b) -> [ a; b ]
  | Axiom.Data_assertion (a, _, _) -> [ a ]
  | Axiom.Same (a, b) | Axiom.Different (a, b) -> [ a; b ]

let individuals d =
  List.sort_uniq String.compare
    (List.concat_map abox_axiom_individuals (d.add_abox @ d.retract_abox))

let abox_axiom_atoms (ax : Axiom.abox_axiom) =
  match ax with
  | Axiom.Instance_of (_, c) -> Concept.atom_names c
  | Axiom.Role_assertion _ | Axiom.Data_assertion _ | Axiom.Same _
  | Axiom.Different _ ->
      []

let tbox_axiom_atoms (ax : Kb4.tbox_axiom) =
  match ax with
  | Kb4.Concept_inclusion (_, c, d) ->
      Concept.atom_names c @ Concept.atom_names d
  | Kb4.Role_inclusion _ | Kb4.Data_role_inclusion _ | Kb4.Transitive _ -> []

let atoms d =
  List.sort_uniq String.compare
    (List.concat_map abox_axiom_atoms (d.add_abox @ d.retract_abox)
    @ List.concat_map tbox_axiom_atoms d.add_tbox)

(* ------------------------------------------------------------------ *)
(* Surface syntax: one statement per line, '+' adds, '-' retracts.

     # comments and blank lines are fine
     + tweety : Fly.
     + Penguin < Bird.
     - hasWing(tweety, w).

   Retractions must be ABox assertions (TBox additions are monotone by
   design: retracting an axiom invalidates arbitrary unfolding state, so
   it is deliberately not expressible).  A replay script is a sequence of
   such deltas separated by lines starting with "---". *)

(* Each line is parsed individually (the grammar promises one statement
   per line), so a failure can report the offending line verbatim next
   to its file-absolute number — batch-parsing the concatenated
   payloads, as an earlier version did, loses both. *)
exception Parse_fail of string

let parse ?(first_line = 1) text =
  let lines = String.split_on_char '\n' text in
  let fail lineno line fmt =
    Format.kasprintf
      (fun msg -> raise (Parse_fail (Format.sprintf "line %d: %S: %s" lineno line msg)))
      fmt
  in
  try
    let added = ref [] and retracted = ref [] in
    List.iteri
      (fun i raw ->
        let line = String.trim raw in
        let lineno = i + first_line in
        if line = "" || line.[0] = '#' then ()
        else
          let payload =
            String.trim (String.sub line 1 (String.length line - 1))
          in
          match line.[0] with
          | ('+' | '-') as sign -> (
              match Surface.parse_kb4 payload with
              | Error e ->
                  fail lineno line "%s (at offset %d of the statement)"
                    e.Surface.message e.Surface.offset
              | Ok kb ->
                  if sign = '+' then added := kb :: !added
                  else if kb.Kb4.tbox <> [] then
                    fail lineno line
                      "retracting TBox axioms is not supported (TBox deltas \
                       are monotone additions)"
                  else retracted := kb :: !retracted)
          | _ ->
              fail lineno line
                "expected '+ <statement>.' or '- <statement>.'")
      lines;
    let adds = List.rev !added and dels = List.rev !retracted in
    Ok
      { add_abox = List.concat_map (fun (kb : Kb4.t) -> kb.Kb4.abox) adds;
        retract_abox = List.concat_map (fun (kb : Kb4.t) -> kb.Kb4.abox) dels;
        add_tbox = List.concat_map (fun (kb : Kb4.t) -> kb.Kb4.tbox) adds }
  with Parse_fail e -> Error e

let parse_script text =
  (* each chunk carries the 1-based file line its first line sits on, so
     per-line parse errors point into the script, not into the chunk *)
  let rec chunks acc start cur line_no = function
    | [] -> List.rev ((start, List.rev cur) :: acc)
    | line :: rest ->
        if String.length (String.trim line) >= 3
           && String.sub (String.trim line) 0 3 = "---"
        then
          chunks ((start, List.rev cur) :: acc) (line_no + 1) [] (line_no + 1)
            rest
        else chunks acc start (line :: cur) (line_no + 1) rest
  in
  let rec collect i = function
    | [] -> Ok []
    | (start, chunk) :: rest -> (
        match parse ~first_line:start (String.concat "\n" chunk) with
        | Error e -> Error (Format.asprintf "delta %d: %s" (i + 1) e)
        | Ok d -> (
            match collect (i + 1) rest with
            | Error _ as e -> e
            | Ok ds -> Ok (if is_empty d then ds else d :: ds)))
  in
  collect 0 (chunks [] 1 [] 1 (String.split_on_char '\n' text))

let pp ppf d =
  List.iter (fun ax -> Format.fprintf ppf "+ %a@." Kb4.pp_tbox_axiom ax) d.add_tbox;
  List.iter (fun ax -> Format.fprintf ppf "+ %a@." Axiom.pp_abox_axiom ax) d.add_abox;
  List.iter
    (fun ax -> Format.fprintf ppf "- %a@." Axiom.pp_abox_axiom ax)
    d.retract_abox

let to_string d = Format.asprintf "%a" pp d
