type config = Oracle.config = {
  cache_capacity : int;
  max_nodes : int;
  max_branches : int;
  backend : Backend.choice;
}

let default_config = Oracle.default_config

type t = {
  oracle : Oracle.t;
  mutable classification : Classify.t option;
  mutable realization : Realize.t option;
}

let create ?(config = default_config) kb =
  { oracle = Oracle.of_config config kb;
    classification = None;
    realization = None }

let oracle t = t.oracle
let kb t = Oracle.kb t.oracle
let classical_kb t = Oracle.classical_kb t.oracle
let config t = Oracle.config t.oracle

(* Atoms in conjunctive positions of a right-hand side: [A ⊏ B ⊓ (C ⊓ D)]
   tells us [A ⊑ B], [A ⊑ C], [A ⊑ D] (Definition 6 maps internal/strong
   inclusions to classical inclusions of the positive translations). *)
let rec conjunct_atoms = function
  | Concept.Atom b -> [ b ]
  | Concept.And (x, y) -> conjunct_atoms x @ conjunct_atoms y
  | _ -> []

let told_subsumptions (kb : Kb4.t) =
  List.concat_map
    (function
      | Kb4.Concept_inclusion ((Kb4.Internal | Kb4.Strong), Concept.Atom a, rhs)
        ->
          List.map (fun b -> (a, b)) (conjunct_atoms rhs)
      | _ -> [])
    kb.Kb4.tbox

(* Registry mirrors of the per-run Classify/Realize stats, recorded once
   per build. *)
let c_cls_tests = Obs.counter "classify.tableau_tests"
let c_cls_told = Obs.counter "classify.told_hits"
let c_cls_dag = Obs.counter "classify.dag_hits"
let c_rlz_pos = Obs.counter "realize.positive_checks"
let c_rlz_neg = Obs.counter "realize.negative_checks"
let c_rlz_pruned = Obs.counter "realize.pruned"

let check t q = Oracle.check t.oracle q

(* Corollary 7: the inclusion holds iff every test concept of it is
   unsatisfiable w.r.t. K̄. *)
let entails_inclusion t kind c d =
  List.for_all
    (fun test -> not (check t (Oracle.Concept_sat test)))
    (Transform.inclusion_tests kind c d)

let subsumes t a b =
  entails_inclusion t Kb4.Internal (Concept.Atom a) (Concept.Atom b)

let classification t =
  match t.classification with
  | Some c -> c
  | None ->
      let c =
        Obs.with_span ~cat:"engine" "engine.classify" (fun () ->
            let c =
              Classify.run
                ~atoms:(Kb4.signature (kb t)).Axiom.concepts
                ~told:(told_subsumptions (kb t)) ~test:(subsumes t)
            in
            let s = c.Classify.stats in
            Obs.add c_cls_tests s.Classify.tableau_tests;
            Obs.add c_cls_told s.Classify.told_hits;
            Obs.add c_cls_dag s.Classify.dag_hits;
            c)
      in
      t.classification <- Some c;
      c

let classify t = (classification t).Classify.supers
let taxonomy t = Classify.taxonomy (classify t)

(* Snapshot export/import: the classification index is a pure function
   of the TBox and the concept signature, so a saved index is valid for
   any session over an identical KB — the store layer validates KB
   equality before restoring. *)
let classification_if_built t = t.classification
let restore_classification t c = t.classification <- Some c

let realization t =
  match t.realization with
  | Some r -> r
  | None ->
      let cls = classification t in
      let r =
        Obs.with_span ~cat:"engine" "engine.realize" (fun () ->
            let signature = Kb4.signature (kb t) in
            let r =
              Realize.run ~individuals:signature.Axiom.individuals
                ~atoms:signature.Axiom.concepts
                ~supers:(Classify.supers_fn cls)
                ~check_pos:(fun a c ->
                  check t (Oracle.Instance (a, Concept.Atom c)))
                ~check_neg:(fun a c ->
                  check t (Oracle.Not_instance (a, Concept.Atom c)))
            in
            let s = r.Realize.stats in
            Obs.add c_rlz_pos s.Realize.positive_checks;
            Obs.add c_rlz_neg s.Realize.negative_checks;
            Obs.add c_rlz_pruned s.Realize.pruned;
            r)
      in
      t.realization <- Some r;
      r

(* A delta invalidates the indexes by the same dependency reasoning the
   oracle applies to verdicts.  Classification is a pure function of the
   TBox and the concept signature: an ABox-only delta that introduces no
   new atomic concepts (and did not flush — flushes cover TBox growth,
   nominal interference and consistency transitions) keeps it warm.
   Realization names individuals directly, so any non-empty delta drops
   it (rebuilt lazily, re-using surviving cached verdicts). *)
let apply t (d : Delta.t) =
  let atoms_before = (Kb4.signature (kb t)).Axiom.concepts in
  let s =
    match Oracle.apply t.oracle d with
    | s -> s
    | exception e ->
        (* the oracle rolled the update back and dropped its verdicts:
           the indexes go with them *)
        t.classification <- None;
        t.realization <- None;
        raise e
  in
  let atoms_after = (Kb4.signature (kb t)).Axiom.concepts in
  if d.Delta.add_tbox <> [] || s.Oracle.flushed || atoms_before <> atoms_after
  then t.classification <- None;
  if not (Delta.is_empty d) then t.realization <- None;
  s

let apply_all t ds =
  (* one script is one update: a later delta's failure undoes the earlier
     ones.  The fold is seeded with a no-op apply so an empty list still
     reports the true retained count (and the zero record stays in one
     place). *)
  Oracle.atomically t.oracle @@ fun () ->
  List.fold_left
    (fun (acc : Oracle.apply_stats) d ->
      let s = apply t d in
      { Oracle.evicted = acc.Oracle.evicted + s.Oracle.evicted;
        retained = s.Oracle.retained;
        flushed = acc.Oracle.flushed || s.Oracle.flushed;
        consistency_flipped =
          acc.Oracle.consistency_flipped || s.Oracle.consistency_flipped;
        recheck_calls = acc.Oracle.recheck_calls + s.Oracle.recheck_calls })
    (apply t Delta.empty) ds

let costs t = Oracle.costs t.oracle
let cost_totals t = Oracle.cost_totals t.oracle
