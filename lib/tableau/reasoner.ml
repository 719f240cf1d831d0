(* What the runs on the current prep have shown about K̄'s
   satisfiability.  Each value is immutable; [apply_delta] replaces it
   along with the prep, so a [state] keeps both. *)
type known =
  | Unknown  (* no run has settled it *)
  | Inconsistent of Tableau.prov  (* a run of K̄ alone clashed *)
  | Graph of Tableau.graph * Tableau.prov
      (* the first satisfiable run's graph, not read yet, with the run's
         provenance *)
  | Witness of Interp.t * Tableau.prov
      (* the model read from that graph (or patched by a delta) and
         verified, with a provenance naming every atom whose extension
         in it is non-empty *)
  | Consistent of Tableau.prov
      (* satisfiable, but the graph's candidate failed verification: no
         witness until the next delta *)

type t = {
  mutable prep : Tableau.prep;
      (* cached preprocessing (absorption, hierarchy, blocking signals,
         the saturated told ABox): computed once per KB, refreshed by
         [apply_delta], shared by every query instead of being
         re-derived per tableau run *)
  max_nodes : int;
  max_branches : int;
  stats : Tableau.stats;
  mutable known : known;
}

let create ?(max_nodes = 20_000) ?(max_branches = max_int) kb =
  { prep = Tableau.prepare kb;
    max_nodes;
    max_branches;
    stats = Tableau.fresh_stats ();
    known = Unknown }

let kb t = Tableau.prep_kb t.prep
let stats t = t.stats
let give prov p = Option.iter (fun into -> Tableau.prov_union ~into p) prov

let run ?prov t extra =
  Tableau.prepared_run ~max_nodes:t.max_nodes ~max_branches:t.max_branches
    ~stats:t.stats ?prov t.prep extra

(* Until a run settles K̄'s satisfiability, each run records its own
   provenance, so that the first satisfiable one can leave its graph
   behind with it.  A run that trips leaves nothing. *)
let sat ?prov t extra =
  match t.known with
  | Unknown ->
      let p = Tableau.fresh_prov () in
      let g = run ~prov:p t extra in
      give prov p;
      (match g with
      | Some g -> t.known <- Graph (g, p)
      | None -> if extra = [] then t.known <- Inconsistent p);
      Option.is_some g
  | Inconsistent _ | Graph _ | Witness _ | Consistent _ ->
      Option.is_some (run ?prov t extra)

(* [p] with every atom whose extension in [m] is non-empty. *)
let covering p (m : Interp.t) =
  let q = Tableau.fresh_prov () in
  Tableau.prov_union ~into:q p;
  Interp.SMap.iter
    (fun a ext -> if not (Interp.ESet.is_empty ext) then Tableau.prov_add_atom q a)
    m.concepts;
  q

(* The one attempt at a witness per prep: the graph is read the first
   time a query or a delta asks for the model. *)
let witnessed t =
  (match t.known with
  | Graph (g, p) ->
      t.known <-
        (match Tableau.graph_model g with
        | Some m -> Witness (m, covering p m)
        | None -> Consistent p)
  | Unknown | Inconsistent _ | Witness _ | Consistent _ -> ());
  match t.known with Witness (m, p) -> Some (m, p) | _ -> None

let witness t = Option.map fst (witnessed t)

(* [holds m] raising [Not_found], as {!Interp} does on an individual
   [m] does not name, counts as false: the model then says nothing *)
let witness_holds ?prov t holds =
  match witnessed t with
  | Some (m, p) when (try holds m with Not_found -> false) ->
      give prov p;
      true
  | _ -> false

let role_inert t r = Tableau.role_inert t.prep r

(* What a delta leaves of [t.known], [kb] being the new K̄.  A retraction
   only removes constraints.  An addition keeps the witness when each
   added assertion is atomic on an individual the witness names: the
   assertions are patched in, and the model is kept if it verifies
   against [kb] (or was left as it was and no TBox axiom came).  Any
   other addition drops it, and with it the consistency verdict. *)
let carried t ~add_abox ~add_tbox kb =
  if add_abox = [] && add_tbox = [] then
    match t.known with Inconsistent _ -> Unknown | k -> k
  else
    let patch acc (ax : Axiom.abox_axiom) =
      match (acc, ax) with
      | Some ((m : Interp.t), _), Instance_of (a, Concept.Atom x)
        when Interp.SMap.mem a m.individuals ->
          let e = Interp.individual m a and ext = Interp.concept_ext m x in
          if Interp.ESet.mem e ext then acc
          else
            Some
              ( { m with concepts = Interp.SMap.add x (Interp.ESet.add e ext) m.concepts },
                true )
      | _ -> None
    in
    match witnessed t with
    | None -> Unknown
    | Some (m, p) -> (
        match List.fold_left patch (Some (m, false)) add_abox with
        | Some (m, false) when add_tbox = [] -> Witness (m, p)
        | Some (m, _) when Interp.is_model m kb -> Witness (m, covering p m)
        | Some _ | None -> Unknown)

let apply_delta t ~add_abox ~retract_abox ~add_tbox =
  let prep =
    if retract_abox = [] then Tableau.prep_add_abox t.prep add_abox
    else
      Tableau.prep_with_abox t.prep
        (Axiom.remove_each retract_abox (Tableau.prep_kb t.prep).Axiom.abox
        @ add_abox)
  in
  let prep = Tableau.prep_add_tbox prep add_tbox in
  t.known <- carried t ~add_abox ~add_tbox (Tableau.prep_kb prep);
  t.prep <- prep

let absorbable_lhs t ax = Tableau.absorbable_lhs t.prep ax

type state = Tableau.prep * known

let state t = (t.prep, t.known)

let restore t (prep, known) =
  t.prep <- prep;
  t.known <- known

let is_consistent ?prov t =
  match t.known with
  | Inconsistent p ->
      give prov p;
      false
  | Graph (_, p) | Witness (_, p) | Consistent p ->
      give prov p;
      true
  | Unknown -> sat ?prov t []

let consistent_with ?prov t extra = sat ?prov t extra

let find_model t = Option.bind (run t []) Tableau.graph_model

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
