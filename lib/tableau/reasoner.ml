type t = {
  mutable prep : Tableau.prep;
      (* cached preprocessing (absorption, hierarchy, blocking signals,
         the saturated told ABox): computed once per KB, refreshed by
         [apply_delta], shared by every query instead of being
         re-derived per tableau run *)
  max_nodes : int;
  max_branches : int;
  stats : Tableau.stats;
  mutable consistent : bool option;
}

let create ?(max_nodes = 20_000) ?(max_branches = max_int) kb =
  { prep = Tableau.prepare kb;
    max_nodes;
    max_branches;
    stats = Tableau.fresh_stats ();
    consistent = None }

let kb t = Tableau.prep_kb t.prep
let stats t = t.stats

let apply_delta t ~add_abox ~retract_abox ~add_tbox =
  let prep =
    if retract_abox = [] then Tableau.prep_add_abox t.prep add_abox
    else
      Tableau.prep_with_abox t.prep
        (Axiom.remove_each retract_abox (Tableau.prep_kb t.prep).Axiom.abox
        @ add_abox)
  in
  t.prep <- Tableau.prep_add_tbox prep add_tbox;
  t.consistent <- None

let absorbable_lhs t ax = Tableau.absorbable_lhs t.prep ax

type state = Tableau.prep * bool option

let state t = (t.prep, t.consistent)

let restore t (prep, consistent) =
  t.prep <- prep;
  t.consistent <- consistent

let sat ?prov t extra_abox =
  Tableau.prepared_satisfiable ~max_nodes:t.max_nodes
    ~max_branches:t.max_branches ~stats:t.stats ?prov t.prep extra_abox

let is_consistent ?prov t =
  match (t.consistent, prov) with
  | Some b, None -> b
  | Some b, Some _ ->
      (* a provenance sink was supplied: re-run so it gets populated *)
      let b' = sat ?prov t [] in
      assert (b = b');
      b
  | None, _ ->
      let b = sat ?prov t [] in
      t.consistent <- Some b;
      b

let consistent_with ?prov t extra = sat ?prov t extra

let find_model t =
  Tableau.prepared_model ~max_nodes:t.max_nodes ~max_branches:t.max_branches
    ~stats:t.stats t.prep []

(* Fresh names use ':', which cannot appear in surface-syntax identifiers. *)
let fresh_individual = "q:fresh"
let fresh_marker = "q:marker"

let concept_satisfiable ?prov t c =
  sat ?prov t [ Axiom.Instance_of (fresh_individual, c) ]

let subsumes t c d =
  not (concept_satisfiable t (Concept.And (c, Concept.Not d)))

let equivalent t c d = subsumes t c d && subsumes t d c

let instance_of t a c = not (sat t [ Axiom.Instance_of (a, Concept.Not c) ])

let role_entailed ?prov t a r b =
  not
    (sat ?prov t
       [ Axiom.Instance_of (b, Concept.Atom fresh_marker);
         Axiom.Instance_of
           (a, Concept.Forall (r, Concept.Not (Concept.Atom fresh_marker))) ])

let same_entailed t a b =
  not
    (sat t
       [ Axiom.Instance_of (a, Concept.Atom fresh_marker);
         Axiom.Instance_of (b, Concept.Not (Concept.Atom fresh_marker)) ])

let different_entailed t a b = not (sat t [ Axiom.Same (a, b) ])

let classify t =
  let atoms = (Axiom.signature (kb t)).concepts in
  List.map
    (fun a ->
      let supers =
        List.filter
          (fun b -> b <> a && subsumes t (Concept.Atom a) (Concept.Atom b))
          atoms
      in
      (a, supers))
    atoms

let validate t =
  let target = kb t in
  let h = Hierarchy.build target.Axiom.tbox in
  let warnings = ref [] in
  let warn fmt = Format.kasprintf (fun s -> warnings := s :: !warnings) fmt in
  let check_concept c =
    List.iter
      (fun (sub : Concept.t) ->
        match sub with
        | At_least (_, r) | At_most (_, r) ->
            if Hierarchy.transitive_subs_below h r <> [] then
              warn
                "number restriction %s uses non-simple role %s (it has a \
                 transitive subrole); outside the decidable fragment"
                (Concept.to_string sub) (Role.to_string r)
        | _ -> ())
      (Concept.subconcepts c)
  in
  List.iter
    (function
      | Axiom.Concept_sub (c, d) ->
          check_concept c;
          check_concept d
      | _ -> ())
    target.Axiom.tbox;
  List.iter
    (function Axiom.Instance_of (_, c) -> check_concept c | _ -> ())
    target.Axiom.abox;
  List.rev !warnings
