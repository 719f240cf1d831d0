type answer = Accepted | Rejected | Undetermined

let answer_to_string = function
  | Accepted -> "accepted"
  | Rejected -> "rejected"
  | Undetermined -> "undetermined"

let pp_answer ppf a = Format.pp_print_string ppf (answer_to_string a)
let equal_answer (a : answer) b = a = b

(* ------------------------------------------------------------------ *)
(* Classical baseline *)

let instance_answer reasoner a c =
  if Reasoner.instance_of reasoner a c then Accepted
  else if Reasoner.instance_of reasoner a (Concept.neg c) then Rejected
  else Undetermined

let classical_instance kb a c = instance_answer (Reasoner.create kb) a c

let classical_is_trivial kb = not (Reasoner.is_consistent (Reasoner.create kb))

(* ------------------------------------------------------------------ *)
(* Syntactic relevance selection *)

module Strings = Set.Make (String)

let concept_symbols c =
  Strings.of_list
    (Concept.atom_names c @ Concept.role_names c @ Concept.data_role_names c
   @ Concept.individual_names c)

let tbox_symbols = function
  | Axiom.Concept_sub (c, d) -> Strings.union (concept_symbols c) (concept_symbols d)
  | Axiom.Role_sub (r, s) ->
      Strings.of_list [ Role.base r; Role.base s ]
  | Axiom.Data_role_sub (u, v) -> Strings.of_list [ u; v ]
  | Axiom.Transitive r -> Strings.singleton r

let abox_symbols = function
  | Axiom.Instance_of (a, c) -> Strings.add a (concept_symbols c)
  | Axiom.Role_assertion (a, r, b) -> Strings.of_list [ a; Role.base r; b ]
  | Axiom.Data_assertion (a, u, _) -> Strings.of_list [ a; u ]
  | Axiom.Same (a, b) | Axiom.Different (a, b) -> Strings.of_list [ a; b ]

type tagged = T of Axiom.tbox_axiom | A of Axiom.abox_axiom

let tagged_symbols = function T ax -> tbox_symbols ax | A ax -> abox_symbols ax

let to_kb tagged_list =
  let tbox, abox =
    List.partition_map
      (function T ax -> Either.Left ax | A ax -> Right ax)
      tagged_list
  in
  Axiom.make ~tbox ~abox

let relevant symbols ax =
  not (Strings.is_empty (Strings.inter symbols (tagged_symbols ax)))

(* Largest consistent Σ_k for the query symbols, by linear extension. *)
let select ?(max_k = 10) (kb : Axiom.kb) query_symbols =
  let all = List.map (fun ax -> T ax) kb.tbox @ List.map (fun ax -> A ax) kb.abox in
  let rec extend k selected symbols =
    let selected' =
      List.filter (fun ax -> List.memq ax selected || relevant symbols ax) all
    in
    let grew = List.length selected' > List.length selected in
    let candidate = to_kb selected' in
    if not (Tableau.kb_satisfiable candidate) then
      (* stop before inconsistency: reason with the previous Σ *)
      to_kb selected
    else if (not grew) || k >= max_k then candidate
    else
      let symbols' =
        List.fold_left
          (fun acc ax -> Strings.union acc (tagged_symbols ax))
          symbols selected'
      in
      extend (k + 1) selected' symbols'
  in
  extend 1 [] query_symbols

let selection_subset ?max_k (kb : Axiom.kb) c a =
  select ?max_k kb (Strings.add a (concept_symbols c))

let selection_instance ?max_k kb a c =
  let subset = selection_subset ?max_k kb c a in
  instance_answer (Reasoner.create subset) a c

(* ------------------------------------------------------------------ *)
(* Stratified repair *)

type ranked = {
  rank_tbox : Axiom.tbox_axiom -> int;
  rank_abox : Axiom.abox_axiom -> int;
}

let default_ranks = { rank_tbox = (fun _ -> 0); rank_abox = (fun _ -> 1) }

let stratified_repair ?(ranks = default_ranks) (kb : Axiom.kb) =
  let tagged =
    List.map (fun ax -> (ranks.rank_tbox ax, T ax)) kb.tbox
    @ List.map (fun ax -> (ranks.rank_abox ax, A ax)) kb.abox
  in
  (* stable sort by rank keeps the original order inside each stratum *)
  let sorted = List.stable_sort (fun (r1, _) (r2, _) -> Int.compare r1 r2) tagged in
  (* the kept axioms, newest first: each check sees them in order *)
  List.fold_left
    (fun kept (_, ax) ->
      if Tableau.kb_satisfiable (to_kb (List.rev (ax :: kept))) then ax :: kept
      else kept)
    [] sorted
  |> List.rev |> to_kb

let stratified_instance ?ranks kb a c =
  instance_answer (Reasoner.create (stratified_repair ?ranks kb)) a c

(* ------------------------------------------------------------------ *)
(* The paper's approach *)

let para_instance t a c =
  match Para.instance_truth t a c with
  | Truth.True -> Accepted
  | Truth.False -> Rejected
  | Truth.Both | Truth.Neither -> Undetermined
