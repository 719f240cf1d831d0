type t = {
  oracle : Oracle.t;
  mutable classification : Classify.t option;
  mutable realization : Realize.t option;
}

let default_cache_capacity = Oracle.default_cache_capacity

let of_oracle oracle = { oracle; classification = None; realization = None }
let of_config config kb = of_oracle (Oracle.of_config config kb)

let oracle t = t.oracle
let kb t = Oracle.kb t.oracle
let reasoner t = Oracle.reasoner t.oracle
let satisfiable t = Oracle.check t.oracle Oracle.Consistent
let entails_instance t a c = Oracle.check t.oracle (Oracle.Instance (a, c))

let entails_not_instance t a c =
  Oracle.check t.oracle (Oracle.Not_instance (a, c))

let instance_truth t a c =
  Truth.of_pair
    ~told_true:(entails_instance t a c)
    ~told_false:(entails_not_instance t a c)

let role_truth t a r b =
  Truth.of_pair
    ~told_true:(Oracle.check t.oracle (Oracle.Role_pos (a, r, b)))
    ~told_false:(Oracle.check t.oracle (Oracle.Role_neg (a, r, b)))

let concept_satisfiable t c = Oracle.check t.oracle (Oracle.Concept_sat c)

let entails_inclusion t kind c d =
  List.for_all
    (fun test -> not (concept_satisfiable t test))
    (Transform.inclusion_tests kind c d)

let subsumes t a b =
  entails_inclusion t Kb4.Internal (Concept.Atom a) (Concept.Atom b)

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
   any engine over an identical KB — the store layer validates KB
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
                ~check_pos:(fun a c -> entails_instance t a (Concept.Atom c))
                ~check_neg:(fun a c ->
                  entails_not_instance t a (Concept.Atom c))
            in
            let s = r.Realize.stats in
            Obs.add c_rlz_pos s.Realize.positive_checks;
            Obs.add c_rlz_neg s.Realize.negative_checks;
            Obs.add c_rlz_pruned s.Realize.pruned;
            r)
      in
      t.realization <- Some r;
      r

(* A delta invalidates the engine-level indexes by the same dependency
   reasoning the oracle applies to verdicts.  Classification is a pure
   function of the TBox and the concept signature: an ABox-only delta
   that introduces no new atomic concepts (and did not flush — flushes
   cover TBox growth, nominal interference and consistency transitions)
   keeps it warm.  Realization names individuals directly, so any
   non-empty delta drops it (rebuilt lazily, re-using surviving cached
   verdicts). *)
let apply t (d : Delta.t) =
  let atoms_before = (Kb4.signature (kb t)).Axiom.concepts in
  let s = Oracle.apply t.oracle d in
  let atoms_after = (Kb4.signature (kb t)).Axiom.concepts in
  if d.Delta.add_tbox <> [] || s.Oracle.flushed || atoms_before <> atoms_after
  then t.classification <- None;
  if not (Delta.is_empty d) then t.realization <- None;
  s

type stats = {
  cache : Verdict_cache.stats;
  tableau_calls : int;
  routes : (string * int) list;
  classification : Classify.stats option;
  realization : Realize.stats option;
}

let stats (t : t) =
  let o = Oracle.stats t.oracle in
  { cache = o.Oracle.cache;
    tableau_calls = o.Oracle.tableau_calls;
    routes = o.Oracle.routes;
    classification = Option.map (fun c -> c.Classify.stats) t.classification;
    realization = Option.map (fun r -> r.Realize.stats) t.realization }
