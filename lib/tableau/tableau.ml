exception Resource_limit of string

module CSet = Concept.Set
module IMap = Map.Make (Int)
module ISet = Set.Make (Int)
module RSet = Role.Set
module SMap = Map.Make (String)

module EKey = struct
  type t = int * int

  let compare (a1, b1) (a2, b2) =
    let c = Int.compare a1 a2 in
    if c <> 0 then c else Int.compare b1 b2
end

module EMap = Map.Make (EKey)

(* Rule kinds and clash causes, indexed: the per-run stats arrays, the
   registry counters, the flight-recorder event kinds and the named
   pairs of a snapshot all share these two enumerations. *)
let rule_names =
  [| "gci"; "and"; "or_unit"; "unfold"; "forall"; "forall_trans";
     "one_of"; "not_one_of"; "exists"; "at_least" |]

let clash_names =
  [| "bottom"; "atomic"; "nominal"; "at_most"; "distinct"; "merge"; "data" |]

type stats = {
  mutable runs : int;
  mutable branches_explored : int;
  mutable nodes_created : int;
  mutable merges : int;
  mutable clashes : int;
  mutable backtracks : int;
  mutable blocking_events : int;
  rule_firings : int array; (* indexed like [rule_names] *)
  clash_causes : int array; (* indexed like [clash_names] *)
}

let fresh_stats () =
  { runs = 0;
    branches_explored = 0;
    nodes_created = 0;
    merges = 0;
    clashes = 0;
    backtracks = 0;
    blocking_events = 0;
    rule_firings = Array.make (Array.length rule_names) 0;
    clash_causes = Array.make (Array.length clash_names) 0 }

let copy_stats s =
  { s with
    rule_firings = Array.copy s.rule_firings;
    clash_causes = Array.copy s.clash_causes }

let diff_stats s0 s1 =
  let sub a1 a0 = Array.mapi (fun i n -> n - a0.(i)) a1 in
  { runs = s1.runs - s0.runs;
    branches_explored = s1.branches_explored - s0.branches_explored;
    nodes_created = s1.nodes_created - s0.nodes_created;
    merges = s1.merges - s0.merges;
    clashes = s1.clashes - s0.clashes;
    backtracks = s1.backtracks - s0.backtracks;
    blocking_events = s1.blocking_events - s0.blocking_events;
    rule_firings = sub s1.rule_firings s0.rule_firings;
    clash_causes = sub s1.clash_causes s0.clash_causes }

let add_stats ~into s =
  let add a b = Array.iteri (fun i n -> a.(i) <- a.(i) + n) b in
  into.runs <- into.runs + s.runs;
  into.branches_explored <- into.branches_explored + s.branches_explored;
  into.nodes_created <- into.nodes_created + s.nodes_created;
  into.merges <- into.merges + s.merges;
  into.clashes <- into.clashes + s.clashes;
  into.backtracks <- into.backtracks + s.backtracks;
  into.blocking_events <- into.blocking_events + s.blocking_events;
  add into.rule_firings s.rule_firings;
  add into.clash_causes s.clash_causes

(* rule firings by rule name — indices into [rule_names] *)
let r_gci = 0
let r_and = 1
let r_or_unit = 2
let r_unfold = 3
let r_forall = 4
let r_forall_trans = 5
let r_one_of = 6
let r_not_one_of = 7
let r_exists = 8
let r_at_least = 9
let f_rules = Array.map (fun n -> "rule." ^ n) rule_names (* flight kinds *)

(* clash causes — indices into [clash_names] *)
let x_bottom = 0
let x_atomic = 1
let x_nominal = 2
let x_at_most = 3
let x_distinct = 4
let x_merge = 5
let x_data = 6
let clash_kinds = Array.map (fun n -> "clash." ^ n) clash_names

(* The named half of a stats record: rule firings under their rule
   names, then clash causes under "clash.<cause>" (also their flight
   kinds).  Zero cells are omitted; unknown names are dropped on the way
   back in, so persisted pairs survive a reordered or reduced rule set. *)
let nonzero names a =
  List.filter (fun (_, n) -> n <> 0)
    (List.combine (Array.to_list names) (Array.to_list a))

let rule_counts s = nonzero rule_names s.rule_firings
let named_counts s = rule_counts s @ nonzero clash_kinds s.clash_causes

let add_named s (name, n) =
  let bump names a =
    Array.iteri (fun i m -> if String.equal m name then a.(i) <- a.(i) + n) names
  in
  bump rule_names s.rule_firings;
  bump clash_kinds s.clash_causes

(* ------------------------------------------------------------------ *)
(* Observability: the tableau.* registry metrics.  Hook sites never
   touch them: [completed_state_prep] folds each run's stats diff into
   the counters once, when the run ends with its span live. *)

let c_runs = Obs.counter "tableau.runs"
let c_sat = Obs.counter "tableau.sat"
let c_unsat = Obs.counter "tableau.unsat"
let c_nodes = Obs.counter "tableau.nodes_created"
let c_merges = Obs.counter "tableau.merges"
let c_branches = Obs.counter "tableau.branches"
let c_backtracks = Obs.counter "tableau.backtracks"
let c_blocks = Obs.counter "tableau.blocking_events"
let c_rules = Array.map (fun n -> Obs.counter ("tableau.rule." ^ n)) rule_names
let c_clashes = Array.map (fun n -> Obs.counter ("tableau.clash." ^ n)) clash_names
let h_run = Obs.histogram "tableau.run_ns"

(* Per-run provenance: the named individuals and (demangled) atomic
   concepts a tableau run touched.  Fresh query artefacts use names
   containing ':' (see {!Reasoner.fresh_individual}) and are excluded,
   so a run over a reduced KB reports exactly the user-level names. *)
module NSet = Set.Make (String)

type prov = { mutable p_inds : NSet.t; mutable p_atoms : NSet.t }

let fresh_prov () = { p_inds = NSet.empty; p_atoms = NSet.empty }
let prov_individuals p = NSet.elements p.p_inds
let prov_concepts p = NSet.elements p.p_atoms

let prov_add_ind p a =
  if not (String.contains a ':') then p.p_inds <- NSet.add a p.p_inds

let prov_atom_name a =
  match Mangle.atom_origin a with
  | Mangle.Pos x | Mangle.Neg x -> Some x
  | Mangle.Plain s -> if String.contains s ':' then None else Some s

let prov_add_concept p x = p.p_atoms <- NSet.add x p.p_atoms
let prov_add_atom p a = Option.iter (prov_add_concept p) (prov_atom_name a)

let prov_union ~into p =
  into.p_inds <- NSet.union into.p_inds p.p_inds;
  into.p_atoms <- NSet.union into.p_atoms p.p_atoms

type node = {
  labels : CSet.t;
  parent : int option;  (* [Some p] for blockable tree nodes *)
  data_asserted : (string * Datatype.value) list;
}

type state = {
  nodes : node IMap.t;
  edges : RSet.t EMap.t;       (* directed edges labelled with role sets *)
  succs : ISet.t IMap.t;       (* adjacency index: x -> {y | (x,y) edge} *)
  preds : ISet.t IMap.t;       (* adjacency index: y -> {x | (x,y) edge} *)
  distinct : ISet.t IMap.t;    (* symmetric ≠ relation *)
  names : int SMap.t;          (* individual name -> node id *)
  next_id : int;
  dirty : ISet.t;              (* nodes whose rules must be (re)examined *)
  open_or : ISet.t;            (* nodes that may carry an undecided ⊔ *)
  counting : ISet.t;           (* nodes carrying ≤-restrictions or
                                  disjunctive nominals *)
  gen_pending : ISet.t;        (* nodes whose generating rules may apply *)
}

(* Blocking strategy, chosen by the expressivity actually used by the KB
   (weaker blocking converges much earlier):
   - [Subset]: L(x) ⊆ L(y) for an ancestor y — sound without inverse roles
     and without at-most restrictions (constraints only ever look down the
     tree and grow monotonically);
   - [Equal]: L(x) = L(y) — sound without inverse roles;
   - [Pairwise]: the full SHIQ-style condition, used whenever inverse roles
     occur. *)
type blocking = Subset | Equal | Pairwise

type ctx = {
  h : Hierarchy.t;
  unfold : Concept.t list SMap.t;  (* lazily unfolded on [A] *)
  unfold_neg : Concept.t list SMap.t;  (* lazily unfolded on [¬A] *)
  gcis : Concept.t list;           (* internalized: added to every node *)
  blocking : blocking;
  max_nodes : int;
  max_branches : int;
  branches0 : int;
      (* [stats.branches_explored] when the run started: the budget is
         per run, and [stats] may be a session's lifetime cells *)
  stats : stats;
  prov : prov option;  (* provenance sink for this run, if requested *)
}

(* One call per diagnostic event: it bumps the run's stats cell
   (unconditionally — cost records need it with no sink armed) and,
   when the flight recorder is armed, records the event.  The registry
   counters are folded from the stats when the run ends. *)

let fired_rule ctx ri x =
  let a = ctx.stats.rule_firings in
  a.(ri) <- a.(ri) + 1;
  if !Flight.on then Flight.record f_rules.(ri) x (-1) ""

let clash_hit ctx ci x =
  let s = ctx.stats in
  s.clashes <- s.clashes + 1;
  s.clash_causes.(ci) <- s.clash_causes.(ci) + 1;
  if !Flight.on then Flight.record clash_kinds.(ci) x (-1) ""

let backtracked ctx x =
  ctx.stats.backtracks <- ctx.stats.backtracks + 1;
  if !Flight.on then Flight.record "backtrack" x (-1) ""

let node_created ctx x =
  ctx.stats.nodes_created <- ctx.stats.nodes_created + 1;
  if !Flight.on then Flight.record "node" x (-1) ""

let merged ctx src dst =
  ctx.stats.merges <- ctx.stats.merges + 1;
  if !Flight.on then Flight.record "merge" src dst ""

let block_event ctx x =
  ctx.stats.blocking_events <- ctx.stats.blocking_events + 1;
  if !Flight.on then Flight.record "block" x (-1) ""

let branched ctx x other note =
  ctx.stats.branches_explored <- ctx.stats.branches_explored + 1;
  if !Flight.on then Flight.record "branch" x other note

(* ------------------------------------------------------------------ *)
(* State accessors *)

let node st x = IMap.find x st.nodes

let labels st x = (node st x).labels

let edge_label st x y =
  match EMap.find_opt (x, y) st.edges with Some s -> s | None -> RSet.empty

let distinct_of st x =
  match IMap.find_opt x st.distinct with Some s -> s | None -> ISet.empty

let are_distinct st x y = ISet.mem y (distinct_of st x)

let mark_dirty st x = { st with dirty = ISet.add x st.dirty }

let add_distinct st x y =
  let dx = ISet.add y (distinct_of st x) in
  let dy = ISet.add x (distinct_of st y) in
  { st with
    distinct = IMap.add x dx (IMap.add y dy st.distinct);
    dirty = ISet.add x (ISet.add y st.dirty) }

let add_labels st x cs =
  let n = node st x in
  let labels = List.fold_left (fun acc c -> CSet.add c acc) n.labels cs in
  let has_or =
    List.exists (function Concept.Or _ -> true | _ -> false) cs
  in
  let has_counting =
    List.exists
      (function
        | Concept.At_most _ | Concept.One_of (_ :: _ :: _) -> true
        | _ -> false)
      cs
  in
  { st with
    nodes = IMap.add x { n with labels } st.nodes;
    dirty = ISet.add x st.dirty;
    open_or = (if has_or then ISet.add x st.open_or else st.open_or);
    counting = (if has_counting then ISet.add x st.counting else st.counting);
    gen_pending = ISet.add x st.gen_pending }

let iset_at m x = match IMap.find_opt x m with Some s -> s | None -> ISet.empty

let add_edge_label st x y rs =
  let cur = edge_label st x y in
  { st with
    edges = EMap.add (x, y) (RSet.union cur rs) st.edges;
    succs = IMap.add x (ISet.add y (iset_at st.succs x)) st.succs;
    preds = IMap.add y (ISet.add x (iset_at st.preds y)) st.preds;
    dirty = ISet.add x (ISet.add y st.dirty);
    gen_pending = ISet.add x (ISet.add y st.gen_pending) }

let adjacent st x = ISet.union (iset_at st.succs x) (iset_at st.preds x)

let node_limit ctx =
  let msg = Printf.sprintf "node limit %d exceeded" ctx.max_nodes in
  if !Flight.on then Flight.trip msg;
  raise (Resource_limit msg)

let new_node ctx st ~parent ~labels:lbls =
  if st.next_id >= ctx.max_nodes then node_limit ctx;
  node_created ctx st.next_id;
  let id = st.next_id in
  let n = { labels = CSet.empty; parent; data_asserted = [] } in
  let st =
    { st with
      nodes = IMap.add id n st.nodes;
      next_id = id + 1;
      dirty = ISet.add id st.dirty }
  in
  (id, add_labels st id lbls)

(* All (neighbour, connecting-role) pairs of [x]; a role appears once per
   edge label entry.  Uses the adjacency indices: O(degree). *)
let neighbour_roles st x =
  let out =
    ISet.fold
      (fun y acc ->
        RSet.fold (fun r acc -> (y, r) :: acc) (edge_label st x y) acc)
      (iset_at st.succs x) []
  in
  ISet.fold
    (fun y acc ->
      RSet.fold (fun r acc -> (y, Role.inv r) :: acc) (edge_label st y x) acc)
    (iset_at st.preds x) out

(* Nodes y that are R-neighbours of x (deduplicated). *)
let r_neighbours ctx st x r =
  let ys =
    List.filter_map
      (fun (y, t) -> if Hierarchy.sub_of ctx.h t r then Some y else None)
      (neighbour_roles st x)
  in
  ISet.elements (ISet.of_list ys)

(* ------------------------------------------------------------------ *)
(* Blocking (pairwise, ancestor) *)

(* The label of the tree edge p -> x as seen from p, including redirected
   back-edges. *)
let tree_edge_label st p x =
  let fwd = edge_label st p x in
  let bwd = RSet.map Role.inv (edge_label st x p) in
  RSet.union fwd bwd

(* Blocking status: the set of blocked nodes (directly or indirectly) and,
   for directly blocked nodes, their blocking witness (used by model
   extraction to tie the loop back). *)
let compute_blocking ctx st =
  (* Process nodes by id: parents are always older than their children. *)
  let blocked = ref ISet.empty in
  let witness = ref IMap.empty in
  IMap.iter
    (fun x n ->
      match n.parent with
      | None -> ()
      | Some px ->
          if ISet.mem px !blocked then blocked := ISet.add x !blocked
          else begin
            let lx = n.labels and lpx = labels st px in
            match ctx.blocking with
            | Subset | Equal ->
                (* anywhere blocking: any older unblocked witness *)
                let blocks y =
                  match ctx.blocking with
                  | Subset -> CSet.subset lx (labels st y)
                  | Equal | Pairwise -> CSet.equal (labels st y) lx
                in
                (try
                   IMap.iter
                     (fun y _ ->
                       if y >= x then raise Exit
                       else if (not (ISet.mem y !blocked)) && blocks y then begin
                         blocked := ISet.add x !blocked;
                         witness := IMap.add x y !witness;
                         raise Exit
                       end)
                     st.nodes
                 with Exit -> ())
            | Pairwise ->
                let ex = tree_edge_label st px x in
                let blocks y =
                  match (node st y).parent with
                  | None -> false
                  | Some py ->
                      CSet.equal (labels st y) lx
                      && CSet.equal (labels st py) lpx
                      && RSet.equal (tree_edge_label st py y) ex
                in
                let rec walk_up y =
                  if y <> x && (not (ISet.mem y !blocked)) && blocks y then begin
                    blocked := ISet.add x !blocked;
                    witness := IMap.add x y !witness
                  end
                  else
                    match (node st y).parent with
                    | None -> ()
                    | Some py -> walk_up py
                in
                (* walk strictly above x, starting from its parent *)
                walk_up px
          end)
    st.nodes;
  (!blocked, !witness)


(* ------------------------------------------------------------------ *)
(* Merging with pruning *)

let subtree st root =
  let rec go acc x =
    let children =
      IMap.fold
        (fun y n acc -> if n.parent = Some x then y :: acc else acc)
        st.nodes []
    in
    List.fold_left go (ISet.add x acc) children
  in
  go ISet.empty root

let remove_nodes st doomed =
  let nodes = IMap.filter (fun x _ -> not (ISet.mem x doomed)) st.nodes in
  let edges =
    EMap.filter
      (fun (a, b) _ -> not (ISet.mem a doomed || ISet.mem b doomed))
      st.edges
  in
  let distinct =
    IMap.filter_map
      (fun x s ->
        if ISet.mem x doomed then None
        else
          let s = ISet.diff s doomed in
          Some s)
      st.distinct
  in
  let prune_index m =
    IMap.filter_map
      (fun x s ->
        if ISet.mem x doomed then None else Some (ISet.diff s doomed))
      m
  in
  { st with
    nodes;
    edges;
    distinct;
    succs = prune_index st.succs;
    preds = prune_index st.preds;
    dirty = ISet.diff st.dirty doomed;
    open_or = ISet.diff st.open_or doomed;
    counting = ISet.diff st.counting doomed;
    gen_pending = ISet.diff st.gen_pending doomed }

(* Merge node [src] into [dst]: union labels, redirect edges, transfer
   distinctness and names, prune src's blockable subtree.  Returns [None] on
   a ≠-clash. *)
let rec merge ctx st ~src ~dst =
  if src = dst then Some st
  else if ISet.mem dst (subtree st src) then merge ctx st ~src:dst ~dst:src
  else if are_distinct st src dst then None
  else begin
    merged ctx src dst;
    let doomed = ISet.remove src (subtree st src) in
    let st = remove_nodes st doomed in
    let nsrc = node st src and ndst = node st dst in
    (* union labels and asserted data edges *)
    let ndst =
      { ndst with
        labels = CSet.union ndst.labels nsrc.labels;
        data_asserted = nsrc.data_asserted @ ndst.data_asserted }
    in
    let st = { st with nodes = IMap.add dst ndst st.nodes } in
    (* redirect edges *)
    let st =
      EMap.fold
        (fun (a, b) rs st ->
          if a = src && b = src then add_edge_label st dst dst rs
          else if a = src then add_edge_label st dst b rs
          else if b = src then add_edge_label st a dst rs
          else st)
        st.edges st
    in
    let st =
      { st with
        edges = EMap.filter (fun (a, b) _ -> a <> src && b <> src) st.edges }
    in
    (* transfer distinctness; a node distinct from itself passes that on
       as dst ≠ dst, the clash below *)
    let st =
      ISet.fold
        (fun y st -> add_distinct st (if y = src then dst else y) dst)
        (distinct_of st src) st
    in
    (* purge src from the adjacency indices of its neighbours *)
    let preds' =
      ISet.fold
        (fun y m -> IMap.add y (ISet.remove src (iset_at m y)) m)
        (iset_at st.succs src) st.preds
    in
    let succs' =
      ISet.fold
        (fun y m -> IMap.add y (ISet.remove src (iset_at m y)) m)
        (iset_at st.preds src) st.succs
    in
    let st =
      { st with
        distinct = IMap.remove src st.distinct;
        names = SMap.map (fun x -> if x = src then dst else x) st.names;
        nodes = IMap.remove src st.nodes;
        succs = IMap.remove src succs';
        preds = IMap.remove src preds' }
    in
    (* re-examine the merged node and everything around it *)
    let st =
      ISet.fold (fun y st -> mark_dirty st y) (adjacent st dst) (mark_dirty st dst)
    in
    (* dst absorbed src's label: it may now carry choices or new work *)
    let st =
      { st with
        open_or = ISet.add dst st.open_or;
        counting = ISet.add dst st.counting;
        gen_pending =
          ISet.union st.gen_pending (ISet.add dst (adjacent st dst)) }
    in
    if are_distinct st dst dst then None else Some st
  end

(* ------------------------------------------------------------------ *)
(* Clash detection *)

(* Is there a set of [k] pairwise-distinct nodes among [ys]? *)
let exists_distinct_clique st k ys =
  let rec go chosen = function
    | [] -> List.length chosen >= k
    | _ when List.length chosen >= k -> true
    | y :: rest ->
        (List.for_all (fun z -> are_distinct st y z) chosen
        && go (y :: chosen) rest)
        || go chosen rest
  in
  go [] ys

let node_clash ctx st x =
  (* [hit] tags the detected clash with its cause. *)
  let hit cause = clash_hit ctx cause x; true in
  let ls = labels st x in
  (CSet.mem Concept.Bottom ls && hit x_bottom)
  || CSet.exists
       (fun c ->
         match (c : Concept.t) with
         | Not (Atom a) -> CSet.mem (Concept.Atom a) ls && hit x_atomic
         | Not (One_of os) ->
             List.exists (fun o -> SMap.find_opt o st.names = Some x) os
             && hit x_nominal
         | At_most (n, r) ->
             let ys = r_neighbours ctx st x r in
             List.length ys > n
             && exists_distinct_clique st (n + 1) ys
             && hit x_at_most
         | _ -> false)
       ls
  || (are_distinct st x x && hit x_distinct)

(* Record every name mapping to node [x] into the run's provenance: used
   at clash and merge sites, where the involved individuals demonstrably
   interact with the query whatever the eventual verdict. *)
let prov_record_node ctx st x =
  match ctx.prov with
  | None -> ()
  | Some p -> SMap.iter (fun a y -> if y = x then prov_add_ind p a) st.names

(* ------------------------------------------------------------------ *)
(* Deterministic saturation *)

exception Clashed

let rec disjuncts (c : Concept.t) =
  match c with Or (a, b) -> disjuncts a @ disjuncts b | c -> [ c ]

(* A disjunct is locally falsified when its (atomic) complement is already
   in the label: choosing it would clash immediately.  Used for unit
   propagation and branch pruning. *)
let falsified lbls (d : Concept.t) =
  match d with
  | Atom a -> CSet.mem (Concept.Not (Concept.Atom a)) lbls
  | Not (Atom a) -> CSet.mem (Concept.Atom a) lbls
  | Bottom -> true
  | _ -> false

(* Apply all deterministic, non-generating rules until fixpoint, driven by
   the dirty set: only nodes whose label, edges or distinctness changed are
   re-examined.  Returns the saturated state and the set of nodes touched
   (the only candidates for new clashes).
   Raises [Clashed] on a merge clash. *)
let saturate ctx st =
  let st = ref st in
  let touched = ref ISet.empty in
  (* nodes on which a rule actually fired (labels grew, a merge or a
     distinctness constraint involved them) — the only nodes whose named
     individuals enter the run's provenance.  Told assertions that never
     interact record nothing, which is what keeps provenance small enough
     for selective cache invalidation to retain anything. *)
  let fired = ref ISet.empty in
  while not (ISet.is_empty !st.dirty) do
    let work = !st.dirty in
    st := { !st with dirty = ISet.empty };
    touched := ISet.union !touched work;
    let add rule x cs =
      let cs = List.filter (fun c -> not (CSet.mem c (labels !st x))) cs in
      if cs <> [] then begin
        fired_rule ctx rule x;
        fired := ISet.add x !fired;
        st := add_labels !st x cs
      end
    in
    let ids = ISet.elements work in
    List.iter
      (fun x ->
        if IMap.mem x !st.nodes then begin
          (* GCIs on every node *)
          add r_gci x ctx.gcis;
          CSet.iter
            (fun c ->
              if IMap.mem x !st.nodes then
                match (c : Concept.t) with
                | And (a, b) -> add r_and x [ a; b ]
                | Or _ ->
                    (* unit propagation over the flattened disjunction *)
                    let lbls = labels !st x in
                    let ds = disjuncts c in
                    if not (List.exists (fun d -> CSet.mem d lbls) ds) then begin
                      match List.filter (fun d -> not (falsified lbls d)) ds with
                      | [] -> add r_or_unit x [ Concept.Bottom ]
                      | [ d ] -> add r_or_unit x [ d ]
                      | _ :: _ :: _ -> ()
                    end
                | Atom a -> (
                    match SMap.find_opt a ctx.unfold with
                    | Some cs -> add r_unfold x cs
                    | None -> ())
                | Not (Atom a) -> (
                    match SMap.find_opt a ctx.unfold_neg with
                    | Some cs -> add r_unfold x cs
                    | None -> ())
                | Forall (s, body) ->
                    List.iter
                      (fun y -> add r_forall y [ body ])
                      (r_neighbours ctx !st x s);
                    (* ∀₊: propagate through transitive subroles *)
                    List.iter
                      (fun r ->
                        List.iter
                          (fun y -> add r_forall_trans y [ Concept.Forall (r, body) ])
                          (r_neighbours ctx !st x r))
                      (Hierarchy.transitive_subs_below ctx.h s)
                | One_of [ o ] -> (
                    match SMap.find_opt o !st.names with
                    | Some y when y = x -> ()
                    | Some y -> (
                        fired_rule ctx r_one_of x;
                        fired := ISet.add x (ISet.add y !fired);
                        match merge ctx !st ~src:x ~dst:y with
                        | Some st' -> st := st'
                        | None ->
                            clash_hit ctx x_merge x;
                            raise Clashed)
                    | None ->
                        (* x becomes the named node for o; promote to root
                           so it can never be pruned or blocked *)
                        fired := ISet.add x !fired;
                        let n = node !st x in
                        st :=
                          mark_dirty
                            { !st with
                              nodes =
                                IMap.add x { n with parent = None } !st.nodes;
                              names = SMap.add o x !st.names }
                            x)
                | Not (One_of os) ->
                    List.iter
                      (fun o ->
                        let st', y =
                          match SMap.find_opt o !st.names with
                          | Some y -> (!st, y)
                          | None ->
                              let y, st' =
                                new_node ctx !st ~parent:None ~labels:[]
                              in
                              ( { st' with names = SMap.add o y st'.names },
                                y )
                        in
                        st := st';
                        if not (are_distinct !st x y) then begin
                          fired_rule ctx r_not_one_of x;
                          fired := ISet.add x (ISet.add y !fired);
                          st := add_distinct !st x y
                        end)
                      os
                | _ -> ())
            (labels !st x)
        end)
      ids
  done;
  (* Provenance is harvested per saturation pass, from the touched set:
     this also captures work done on branches that later backtrack, so
     UNSAT runs report what they examined, not just the final state.
     Individuals are harvested selectively — only names mapping to a node
     in [fired] — while atoms stay coarse (every label of every touched
     node): TBox-delta retention needs "this atom never appeared in any
     label", ABox-delta retention only needs "a rule involved this
     individual" (told-only names are covered by the component closure on
     the eviction side). *)
  (match ctx.prov with
  | None -> ()
  | Some p ->
      SMap.iter (fun a x -> if ISet.mem x !fired then prov_add_ind p a) !st.names;
      ISet.iter
        (fun x ->
          match IMap.find_opt x !st.nodes with
          | None -> ()
          | Some n ->
              CSet.iter
                (fun c ->
                  match (c : Concept.t) with
                  | Atom a | Not (Atom a) -> prov_add_atom p a
                  | _ -> ())
                n.labels)
        !touched);
  (!st, !touched)

(* ------------------------------------------------------------------ *)
(* Nondeterministic choices *)

type choice =
  | Disjunction of int * Concept.t list        (* node, disjuncts to try *)
  | Merge_pairs of (int * int) list            (* ≤-rule merge candidates *)
  | Nominal_choice of int * string list        (* node, nominals to try *)

let find_choice ctx st =
  (* Disjunctions first, scanning only nodes registered in [open_or] and
     pruning the ones that turn out fully decided; fail-first heuristic:
     branch on a disjunction with the fewest live alternatives. *)
  let best = ref None in
  let best_size = ref max_int in
  let still_open = ref ISet.empty in
  ISet.iter
    (fun x ->
      match IMap.find_opt x st.nodes with
      | None -> ()
      | Some n ->
          let node_open = ref false in
          CSet.iter
            (fun c ->
              match (c : Concept.t) with
              | Or _ ->
                  let ds = disjuncts c in
                  if not (List.exists (fun d -> CSet.mem d n.labels) ds) then begin
                    node_open := true;
                    (* saturation already handled the 0/1-candidate cases *)
                    let live =
                      List.filter (fun d -> not (falsified n.labels d)) ds
                    in
                    let k = List.length live in
                    if k < !best_size then begin
                      best := Some (Disjunction (x, live));
                      best_size := k
                    end
                  end
              | _ -> ())
            n.labels;
          if !node_open then still_open := ISet.add x !still_open)
    st.open_or;
  let st = { st with open_or = !still_open } in
  match !best with
  | Some _ as choice -> (choice, st)
  | None ->
      (* counting choices: ≤-merges and disjunctive nominals.  Nodes with
         ≤-restrictions stay registered (new edges can retrigger them);
         nodes whose only reason was a now-resolved nominal are pruned. *)
      let found = ref None in
      let still = ref ISet.empty in
      (try
         ISet.iter
           (fun x ->
             match IMap.find_opt x st.nodes with
             | None -> ()
             | Some n ->
                 let keep = ref false in
                 CSet.iter
                   (fun c ->
                     match (c : Concept.t) with
                     | At_most (k, r) ->
                         keep := true;
                         let ys = r_neighbours ctx st x r in
                         if List.length ys > k then begin
                           let pairs = ref [] in
                           List.iteri
                             (fun i y ->
                               List.iteri
                                 (fun j z ->
                                   if i < j && not (are_distinct st y z) then
                                     let src, dst =
                                       if y > z then (y, z) else (z, y)
                                     in
                                     pairs := (src, dst) :: !pairs)
                                 ys)
                             ys;
                           if !pairs <> [] then begin
                             still := ISet.add x !still;
                             found := Some (Merge_pairs !pairs);
                             raise Exit
                           end
                           (* no mergeable pair: clash will be caught by
                              the clique check *)
                         end
                     | One_of (_ :: _ :: _ as os) ->
                         if
                           not
                             (List.exists
                                (fun o -> SMap.find_opt o st.names = Some x)
                                os)
                         then begin
                           keep := true;
                           still := ISet.add x !still;
                           found := Some (Nominal_choice (x, os));
                           raise Exit
                         end
                     | _ -> ())
                   n.labels;
                 if !keep then still := ISet.add x !still)
           st.counting
       with Exit ->
         (* keep the not-yet-visited nodes registered *)
         ISet.iter
           (fun x -> still := ISet.add x !still)
           st.counting);
      (!found, { st with counting = !still })

(* ------------------------------------------------------------------ *)
(* Generating rules *)

(* Lazy blocked check with per-call memoization: a node is blocked iff an
   ancestor directly blocks it or an ancestor is itself blocked. *)
let blocked_checker ctx st =
  let memo = Hashtbl.create 16 in
  let rec directly_blocked x =
    match (node st x).parent with
    | None -> false
    | Some px -> (
        let lx = labels st x and lpx = labels st px in
        match ctx.blocking with
        | Subset | Equal ->
            (* ANYWHERE blocking: any older unblocked node may witness —
               essential to collapse exponential unfolding trees *)
            let blocks y = match ctx.blocking with
              | Subset -> CSet.subset lx (labels st y)
              | Equal | Pairwise -> CSet.equal (labels st y) lx
            in
            IMap.exists
              (fun y _ -> y < x && (not (is_blocked y)) && blocks y)
              st.nodes
        | Pairwise ->
            (* ancestor pairwise blocking (inverse roles present) *)
            let ex = tree_edge_label st px x in
            let blocks y =
              match (node st y).parent with
              | None -> false
              | Some py ->
                  CSet.equal (labels st y) lx
                  && CSet.equal (labels st py) lpx
                  && RSet.equal (tree_edge_label st py y) ex
            in
            let rec walk y =
              (y <> x && (not (is_blocked y)) && blocks y)
              ||
              match (node st y).parent with
              | None -> false
              | Some py -> walk py
            in
            walk px)
  and is_blocked x =
    match Hashtbl.find_opt memo x with
    | Some b -> b
    | None ->
        let b =
          match (node st x).parent with
          | None -> false
          | Some px -> is_blocked px || directly_blocked x
        in
        if b then block_event ctx x;
        Hashtbl.add memo x b;
        b
  in
  is_blocked

(* Generating rules are only re-examined on the pending frontier: nodes
   whose label or neighbourhood changed since they were last found fully
   expanded.  Blocked nodes stay pending (they may unblock later); nodes
   with nothing to generate are dropped.  Returns the (possibly pruned)
   state alongside the rule application. *)
let find_generating ctx st =
  let is_blocked = blocked_checker ctx st in
  let result = ref None in
  let still = ref ISet.empty in
  (try
     ISet.iter
       (fun x ->
         match IMap.find_opt x st.nodes with
         | None -> ()
         | Some n ->
             if is_blocked x then still := ISet.add x !still
             else
               let applicable = ref false in
               CSet.iter
                 (fun c ->
                   match (c : Concept.t) with
                   | Exists (r, body) ->
                       let witnessed =
                         List.exists
                           (fun y -> CSet.mem body (labels st y))
                           (r_neighbours ctx st x r)
                       in
                       if not witnessed then begin
                         applicable := true;
                         result :=
                           Some
                             (fun st ->
                               fired_rule ctx r_exists x;
                               let y, st =
                                 new_node ctx st ~parent:(Some x)
                                   ~labels:[ body ]
                               in
                               add_edge_label st x y (RSet.singleton r));
                         raise Exit
                       end
                   | At_least (k, r) ->
                       let ys = r_neighbours ctx st x r in
                       if not (exists_distinct_clique st k ys) then begin
                         applicable := true;
                         result :=
                           Some
                             (fun st ->
                               fired_rule ctx r_at_least x;
                               (* create k fresh pairwise-distinct
                                  successors *)
                               let rec go st created i =
                                 if i = 0 then (st, created)
                                 else
                                   let y, st =
                                     new_node ctx st ~parent:(Some x)
                                       ~labels:[]
                                   in
                                   let st =
                                     add_edge_label st x y (RSet.singleton r)
                                   in
                                   let st =
                                     List.fold_left
                                       (fun st z -> add_distinct st y z)
                                       st created
                                   in
                                   go st (y :: created) (i - 1)
                               in
                               let st, _ = go st [] k in
                               st);
                         raise Exit
                       end
                   | _ -> ())
                 n.labels;
               ignore !applicable)
       st.gen_pending
   with Exit ->
     (* keep everything pending: the applied rule will re-register what it
        touches, and unvisited nodes must not be lost *)
     still := st.gen_pending);
  (!result, { st with gen_pending = !still })

(* ------------------------------------------------------------------ *)
(* Final (rule-free) checks: datatypes *)

let data_ok ctx st =
  IMap.for_all
    (fun _ n ->
      Datacheck.satisfiable
        ~data_supers:(Hierarchy.data_supers ctx.h)
        ~asserted:n.data_asserted
        ~constraints:(CSet.elements n.labels))
    st.nodes

(* ------------------------------------------------------------------ *)
(* Main expansion loop *)

(* A live disjunct that is a negatively absorbed name already holds
   (its negation is absent, though no label shows the name): try it
   first, or a GCI offering the name sends the search through its other
   disjuncts first. *)
let holds_first ctx ds =
  let holds = function
    | Concept.Atom a -> SMap.mem a ctx.unfold_neg
    | _ -> false
  in
  let yes, no = List.partition holds ds in
  yes @ no

(* Saturate, then look for a clash on the nodes the pass touched
   ([None] on one).  A full check whenever every other node was checked
   before and kept its label: the start of a run on its base, and every
   pass after it. *)
let settle ctx st =
  match saturate ctx st with
  | exception Clashed -> None
  | st, touched ->
      if
        ISet.exists
          (fun x ->
            IMap.mem x st.nodes && node_clash ctx st x
            && (prov_record_node ctx st x; true))
          touched
      then None
      else Some st

(* Expand to a complete, clash-free state ([Some]) or fail ([None]). *)
let rec expand ctx st =
  match settle ctx st with
  | None -> None
  | Some st ->
        if ctx.stats.branches_explored - ctx.branches0 > ctx.max_branches
        then begin
          let msg =
            Printf.sprintf "branch limit %d exceeded" ctx.max_branches
          in
          if !Flight.on then Flight.trip msg;
          raise (Resource_limit msg)
        end;
        let choice, st = find_choice ctx st in
        match choice with
        | Some (Disjunction (x, ds)) ->
            (* semantic branching: later alternatives assert the negation
               of the ones already refuted, so subproblems don't overlap *)
            let rec try_branches negs = function
              | [] -> None
              | d :: rest -> (
                  branched ctx x (List.length rest) "or";
                  match expand ctx (add_labels st x (d :: negs)) with
                  | Some _ as r -> r
                  | None ->
                      backtracked ctx x;
                      try_branches (Concept.nnf (Concept.Not d) :: negs) rest)
            in
            try_branches [] (holds_first ctx ds)
        | Some (Merge_pairs pairs) ->
            List.find_map
              (fun (src, dst) ->
                branched ctx src dst "merge";
                prov_record_node ctx st src;
                prov_record_node ctx st dst;
                match merge ctx st ~src ~dst with
                | Some st' -> (
                    match expand ctx st' with
                    | Some _ as r -> r
                    | None ->
                        backtracked ctx src;
                        None)
                | None ->
                    clash_hit ctx x_merge src;
                    backtracked ctx src;
                    None)
              pairs
        | Some (Nominal_choice (x, os)) ->
            List.find_map
              (fun o ->
                branched ctx x (-1) "nominal";
                match expand ctx (add_labels st x [ Concept.One_of [ o ] ]) with
                | Some _ as r -> r
                | None ->
                    backtracked ctx x;
                    None)
              os
        | None -> (
            match find_generating ctx st with
            | Some apply, st -> expand ctx (apply st)
            | None, st ->
                if data_ok ctx st then Some st
                else begin
                  clash_hit ctx x_data (-1);
                  None
                end)

(* ------------------------------------------------------------------ *)
(* Preprocessing: absorption and internalization *)

let rec conjuncts (c : Concept.t) =
  match c with And (a, b) -> conjuncts a @ conjuncts b | c -> [ c ]

(* The split that decides positive absorption: a left-hand side with an
   atomic conjunct [a] is absorbed into [a]'s unfolding, with the other
   conjuncts as its residue.  A name it picks for some axiom has a
   positive rule. *)
let absorption_split c =
  match
    List.partition (function Concept.Atom _ -> true | _ -> false) (conjuncts c)
  with
  | Concept.Atom a :: extra_atoms, rest -> Some (a, extra_atoms @ rest)
  | _ -> None

(* The split for a left-hand side [absorption_split] leaves alone: the
   first conjunct [¬a] of its NNF whose [a] has no positive rule is the
   key, the other conjuncts are the residue.  A name is absorbed one way
   only: a node without [¬a] is read as an [a], which a positive rule on
   [a] would have to see in its label (Horrocks & Tobies, KR 2000). *)
let negative_split ~positive c =
  let rec go seen = function
    | [] -> None
    | Concept.Not (Concept.Atom a) :: rest when not (SMap.mem a positive) ->
        Some (a, List.rev_append seen rest)
    | c :: rest -> go (c :: seen) rest
  in
  go [] (conjuncts (Concept.nnf c))

(* [X ⊓ residue ⊑ D] absorbed under [X] unfolds to nnf(¬residue ⊔ D). *)
let add_rule key residue d rules =
  let rhs =
    if residue = [] then Concept.nnf d
    else Concept.nnf (Concept.Or (Concept.Not (Concept.conj residue), d))
  in
  let cur = match SMap.find_opt key rules with Some l -> l | None -> [] in
  SMap.add key (rhs :: cur) rules

(* The direction of every name is decided first: the positive pass runs
   over all of [tbox], and only then does the negative split see which
   names have a positive rule. *)
let preprocess_tbox tbox =
  let unfold, rest =
    List.fold_left
      (fun (unfold, rest) ax ->
        match ax with
        | Axiom.Concept_sub (c, d) -> (
            match absorption_split c with
            | Some (a, residue) -> (add_rule a residue d unfold, rest)
            | None -> (unfold, (c, d) :: rest))
        | Axiom.Role_sub _ | Axiom.Data_role_sub _ | Axiom.Transitive _ ->
            (unfold, rest))
      (SMap.empty, []) tbox
  in
  let unfold_neg, gcis =
    List.fold_left
      (fun (unfold_neg, gcis) (c, d) ->
        match negative_split ~positive:unfold c with
        | Some (a, residue) -> (add_rule a residue d unfold_neg, gcis)
        | None ->
            let gci = Concept.nnf (Concept.Or (Concept.Not c, d)) in
            (unfold_neg, gci :: gcis))
      (SMap.empty, []) (List.rev rest)
  in
  (unfold, unfold_neg, gcis)

let empty_state =
  { nodes = IMap.empty;
    edges = EMap.empty;
    succs = IMap.empty;
    preds = IMap.empty;
    distinct = IMap.empty;
    names = SMap.empty;
    next_id = 0;
    dirty = ISet.empty;
    open_or = ISet.empty;
    counting = ISet.empty;
    gen_pending = ISet.empty }

(* The one ABox fold: a told ABox onto [empty_state], additions onto a
   base, a query onto a base.  Everything it changes is left dirty for
   the next saturation pass.
   Raises [Clashed] on a merge clash. *)
let add_abox ctx st axs =
  let get_node st a =
    (* Note: merely naming an individual does NOT enter it into the run's
       provenance — only rule firings, merges and clashes do (see
       [saturate]); told-only individuals are handled by the component
       closure on the invalidation side. *)
    match SMap.find_opt a st.names with
    | Some x -> (x, st)
    | None ->
        let x, st = new_node ctx st ~parent:None ~labels:[] in
        (x, { st with names = SMap.add a x st.names })
  in
  List.fold_left
    (fun st ax ->
      match (ax : Axiom.abox_axiom) with
      | Instance_of (a, c) ->
          let x, st = get_node st a in
          add_labels st x [ Concept.nnf c ]
      | Role_assertion (a, r, b) ->
          let x, st = get_node st a in
          let y, st = get_node st b in
          let x, y, r =
            match r with Role.Inv s -> (y, x, Role.Name s) | _ -> (x, y, r)
          in
          add_edge_label st x y (RSet.singleton r)
      | Data_assertion (a, u, v) ->
          let x, st = get_node st a in
          let n = node st x in
          { st with
            nodes =
              IMap.add x
                { n with data_asserted = (u, v) :: n.data_asserted }
                st.nodes }
      | Same (a, b) -> (
          let x, st = get_node st a in
          let y, st = get_node st b in
          match merge ctx st ~src:y ~dst:x with
          | Some st ->
              (* every name the merge gathers on [x] took part in it: a
                 pass over a base would not see them join a node on
                 which a rule fired in the base *)
              prov_record_node ctx st x;
              st
          | None ->
              clash_hit ctx x_merge x;
              (match ctx.prov with
              | Some p ->
                  prov_add_ind p a;
                  prov_add_ind p b
              | None -> ());
              raise Clashed)
      | Different (a, b) ->
          let x, st = get_node st a in
          let y, st = get_node st b in
          (* a common neighbour's ≤-restriction may clash now: check
             every neighbour, as a start from the empty state checks
             every node *)
          ISet.fold
            (fun z st -> mark_dirty st z)
            (ISet.union (adjacent st x) (adjacent st y))
            (add_distinct st x y))
    st axs

(* ------------------------------------------------------------------ *)
(* Blocking signals and prepared (cached) preprocessing.

   A [prep] caches everything about a KB that does not change between
   tableau runs: absorption ([unfold]/[unfold_neg]/[gcis]), the role
   hierarchy, the blocking-relevant expressivity signals of the TBox
   and the told ABox, and the told ABox saturated (its base, built by
   the first run that needs it).  Reasoners keep one [prep] per KB and
   refresh it when a delta arrives (an ABox change rescans only the
   ABox signals, and additions extend the base), instead of re-running
   absorption, [Hierarchy.build], the full signal scan and the told
   ABox's saturation on every single tableau call. *)

(* Expressivity signals deciding the blocking strategy. *)
type signals = { s_inverse : bool; s_at_most : bool }

let no_signals = { s_inverse = false; s_at_most = false }

let join_signals a b =
  { s_inverse = a.s_inverse || b.s_inverse;
    s_at_most = a.s_at_most || b.s_at_most }

let concept_signals acc c =
  List.fold_left
    (fun acc (sub : Concept.t) ->
      match sub with
      | Exists (Role.Inv _, _)
      | Forall (Role.Inv _, _)
      | At_least (_, Role.Inv _) ->
          { acc with s_inverse = true }
      | At_most (_, r) ->
          { s_at_most = true; s_inverse = acc.s_inverse || Role.is_inverse r }
      | _ -> acc)
    acc
    (Concept.subconcepts c)

let tbox_axiom_signals acc (ax : Axiom.tbox_axiom) =
  match ax with
  | Axiom.Concept_sub (c, d) ->
      (* negation can flip ≤ into ≥ and vice versa *)
      let acc = concept_signals acc (Concept.nnf c) in
      let acc = concept_signals acc (Concept.nnf d) in
      let acc = concept_signals acc (Concept.nnf (Concept.Not c)) in
      concept_signals acc (Concept.nnf (Concept.Not d))
  | Axiom.Role_sub (r, s) ->
      if Role.is_inverse r || Role.is_inverse s then
        { acc with s_inverse = true }
      else acc
  | Axiom.Data_role_sub _ | Axiom.Transitive _ -> acc

let abox_axiom_signals acc (ax : Axiom.abox_axiom) =
  match ax with
  | Axiom.Instance_of (_, c) -> concept_signals acc (Concept.nnf c)
  | Axiom.Role_assertion (_, r, _) ->
      if Role.is_inverse r then { acc with s_inverse = true } else acc
  | Axiom.Data_assertion _ | Axiom.Same _ | Axiom.Different _ -> acc

let blocking_of { s_inverse; s_at_most } =
  if s_inverse then Pairwise else if s_at_most then Equal else Subset

(* The TBox half of a prep, shared by every ABox change. *)
type tbox_prep = {
  t_unfold : Concept.t list SMap.t;
  t_unfold_neg : Concept.t list SMap.t;
  t_gcis : Concept.t list;
  t_h : Hierarchy.t;
  t_sig : signals;
}

(* The told ABox after [add_abox] and [settle] from [empty_state]:
   [b_state] is [None] when it clashes by itself; [b_prov] is what
   building it harvested, never written after. *)
type base = { b_state : state option; b_prov : prov }

type memo =
  | Unbuilt
  | Built of base
  | Extend of base * Axiom.abox_axiom list
      (* the base of a told ABox this one extends, with the additions
         since, newest first *)

type prep = {
  p_kb : Axiom.kb;
  p_tbox : tbox_prep;
  p_abox_sig : signals;
  p_roles : NSet.t Lazy.t;  (* the roles a concept of K̄ mentions *)
  mutable p_base : memo;
      (* the one mutable cell: written by the run that builds or
         extends the base, and only with a whole one *)
}

let concept_roles acc c =
  List.fold_left (fun acc r -> NSet.add r acc) acc (Concept.role_names c)

(* The one constructor: [memo] must describe [kb]'s told ABox. *)
let make_prep p_tbox (p_kb : Axiom.kb) p_abox_sig p_base =
  let p_roles =
    lazy
      (List.fold_left
         (fun acc (ax : Axiom.abox_axiom) ->
           match ax with Instance_of (_, c) -> concept_roles acc c | _ -> acc)
         (List.fold_left
            (fun acc (ax : Axiom.tbox_axiom) ->
              match ax with
              | Concept_sub (c, d) -> concept_roles (concept_roles acc c) d
              | Role_sub _ | Data_role_sub _ | Transitive _ -> acc)
            NSet.empty p_kb.tbox)
         p_kb.abox)
  in
  { p_kb; p_tbox; p_abox_sig; p_roles; p_base }

let prep_kb p = p.p_kb

let abox_signals acc axs = List.fold_left abox_axiom_signals acc axs

let prepare (kb : Axiom.kb) =
  let unfold, unfold_neg, gcis = preprocess_tbox kb.tbox in
  make_prep
    { t_unfold = unfold;
      t_unfold_neg = unfold_neg;
      t_gcis = gcis;
      t_h = Hierarchy.build kb.tbox;
      t_sig = List.fold_left tbox_axiom_signals no_signals kb.tbox }
    kb (abox_signals no_signals kb.abox) Unbuilt

let prep_with_abox p abox =
  make_prep p.p_tbox { p.p_kb with abox } (abox_signals no_signals abox)
    Unbuilt

(* Additions keep a built base, to be extended by the next run; with
   no base built there is nothing to extend, and the next run builds
   one over the whole told ABox. *)
let prep_add_abox p axs =
  if axs = [] then p
  else
    let memo =
      match p.p_base with
      | Unbuilt -> Unbuilt
      | Built b -> Extend (b, List.rev axs)
      | Extend (b, pending) -> Extend (b, List.rev_append axs pending)
    in
    make_prep p.p_tbox
      { p.p_kb with abox = p.p_kb.Axiom.abox @ axs }
      (abox_signals p.p_abox_sig axs)
      memo

(* A TBox addition can change the direction of a name absorbed
   negatively, so the whole TBox is prepared again. *)
let prep_add_tbox p axs =
  if axs = [] then p
  else prepare { p.p_kb with tbox = p.p_kb.Axiom.tbox @ axs }

(* The atomic left-hand side under which [prep_add_tbox] would absorb
   [ax] positively into [p], when that extends one name's unfolding and
   nothing else.  Exposed so the invalidation layer can decide, with the
   exact same test, whether a monotone TBox addition is local to one
   lazily-unfolded atom.  [None] for a GCI, a role axiom, a negatively
   absorbed axiom, and an axiom that gives a name [p] absorbs negatively
   a positive rule: that name was implicitly true at every node not
   labelled with its negation, which no provenance records. *)
let absorbable_lhs p (ax : Axiom.tbox_axiom) =
  match ax with
  | Axiom.Concept_sub (c, _) -> (
      match absorption_split c with
      | Some (a, _) when not (SMap.mem a p.p_tbox.t_unfold_neg) -> Some a
      | _ -> None)
  | Axiom.Role_sub _ | Axiom.Data_role_sub _ | Axiom.Transitive _ -> None

(* Adding [r(a, b)] to a model of K̄ and closing the edge upwards keeps
   it a model when no super-role of [r] is mentioned by a concept or is
   transitive: no concept extension and no closure changes. *)
let role_inert p r =
  let h = p.p_tbox.t_h and roles = Lazy.force p.p_roles in
  Role.Set.for_all
    (fun s -> not (NSet.mem (Role.base s) roles || Hierarchy.transitive h s))
    (Hierarchy.supers h r)

(* [b] with the told assertions [axs] added and settled, harvesting
   into a copy of its provenance.  [saturate] reads the TBox half of
   [ctx] only, never the blocking strategy or a query, so the result
   serves every run of the prep.  A clashing base stays one: the
   deterministic rules that derived its clash still apply. *)
let extend_base ctx b axs =
  match b.b_state with
  | None -> b
  | Some st ->
      let p = fresh_prov () in
      prov_union ~into:p b.b_prov;
      let ctx = { ctx with prov = Some p } in
      let b_state =
        match add_abox ctx st axs with
        | exception Clashed -> None
        | st -> settle ctx st
      in
      { b_state; b_prov = p }

(* [prep]'s base, built or extended by the run of [ctx] that first
   needs it, so its work lands in that run's stats cells and under its
   budget.  The memo is written only once the base is whole: a trip
   leaves [prep] as it was. *)
let base_of ctx prep =
  let remember b =
    prep.p_base <- Built b;
    b
  in
  match prep.p_base with
  | Built b -> b
  | Extend (b, pending) -> remember (extend_base ctx b (List.rev pending))
  | Unbuilt ->
      remember
        (extend_base ctx
           { b_state = Some empty_state; b_prov = fresh_prov () }
           prep.p_kb.Axiom.abox)

let completed_state_prep ?(max_nodes = 20_000) ?(max_branches = max_int)
    ?(stats = fresh_stats ()) ?prov prep extra =
  (* The run's work reaches the registry as one fold of its stats diff,
     when it ends — normally or by a [Resource_limit] trip — and only
     when its span is live: a disarmed run copies and folds nothing.
     [fold] refers to globals only, so building it allocates nothing. *)
  let fold s0 s1 =
    let d = diff_stats s0 s1 in
    Obs.add c_runs d.runs;
    Obs.add c_nodes d.nodes_created;
    Obs.add c_merges d.merges;
    Obs.add c_branches d.branches_explored;
    Obs.add c_backtracks d.backtracks;
    Obs.add c_blocks d.blocking_events;
    Array.iteri (fun i n -> Obs.add c_rules.(i) n) d.rule_firings;
    Array.iteri (fun i n -> Obs.add c_clashes.(i) n) d.clash_causes;
    d
  in
  let sp = Obs.enter ~cat:"tableau" "tableau.run" in
  let before = if Obs.live sp then Some (copy_stats stats) else None in
  stats.runs <- stats.runs + 1;
  if !Flight.on then Flight.record "run.start" (-1) (-1) "";
  let finish outcome =
    (match before with
    | None -> ()
    | Some s0 ->
        let d = fold s0 stats in
        Obs.set_attr sp "nodes" (string_of_int d.nodes_created);
        Obs.set_attr sp "branches" (string_of_int d.branches_explored);
        Obs.set_attr sp "merges" (string_of_int d.merges);
        Obs.set_attr sp "sat"
          (match outcome with Some _ -> "true" | None -> "false");
        Obs.incr (match outcome with Some _ -> c_sat | None -> c_unsat));
    if !Flight.on then
      Flight.record "run.end" (-1) (-1)
        (match outcome with Some _ -> "sat" | None -> "unsat");
    Obs.exit_timed sp h_run
  in
  match
    let kb =
      if extra = [] then prep.p_kb
      else { prep.p_kb with abox = prep.p_kb.Axiom.abox @ extra }
    in
    let tb = prep.p_tbox in
    let sg = abox_signals (join_signals tb.t_sig prep.p_abox_sig) extra in
    let ctx =
      { h = tb.t_h;
        unfold = tb.t_unfold;
        unfold_neg = tb.t_unfold_neg;
        gcis = tb.t_gcis;
        blocking = blocking_of sg;
        max_nodes;
        max_branches;
        branches0 = stats.branches_explored;
        stats;
        prov }
    in
    (* Saturating the base, then the query's assertions on it, reaches
       the state one pass over both would: the deterministic rules have
       one fixpoint, and the told nodes keep their ids. *)
    let base = base_of ctx prep in
    Option.iter (fun p -> prov_union ~into:p base.b_prov) prov;
    match base.b_state with
    | None -> (ctx, kb, None)
    | Some st -> (
        (* a run with a smaller budget than the one that built the base
           trips where it would have building it *)
        if st.next_id > max_nodes then node_limit ctx;
        match add_abox ctx st extra with
        | exception Clashed -> (ctx, kb, None)
        | st ->
            (* non-empty domain *)
            let st =
              if IMap.is_empty st.nodes then
                snd (new_node ctx st ~parent:None ~labels:[])
              else st
            in
            (ctx, kb, expand ctx st))
  with
  | (_, _, outcome) as r ->
      finish outcome;
      r
  | exception e ->
      (match before with
      | None -> ()
      | Some s0 ->
          ignore (fold s0 stats : stats);
          Obs.set_attr sp "exn" (Printexc.to_string e));
      Obs.exit_timed sp h_run;
      raise e

(* A run's complete clash-free graph, with what reading a model from it
   needs: the TBox half of its context (never its provenance sink) and
   the KB it ran on, query included. *)
type graph = { g_ctx : ctx; g_kb : Axiom.kb; g_state : state }

let prepared_run ?max_nodes ?max_branches ?stats ?prov prep extra =
  match completed_state_prep ?max_nodes ?max_branches ?stats ?prov prep extra with
  | _, _, None -> None
  | ctx, kb, Some st -> Some { g_ctx = { ctx with prov = None }; g_kb = kb; g_state = st }

let kb_satisfiable ?max_nodes ?max_branches ?stats ?prov kb =
  Option.is_some (prepared_run ?max_nodes ?max_branches ?stats ?prov (prepare kb) [])

(* ------------------------------------------------------------------ *)
(* Model extraction.

   From a complete clash-free completion graph we build a finite candidate
   model: blocked branches are tied back to their blocking witnesses, role
   extensions are closed under the role hierarchy and declared
   transitivity, and datatype successors come from the local solver's
   witness assignment.  The SH(O)IN(D) family does not enjoy the finite
   model property, so the construction can fail; the candidate is therefore
   VERIFIED against the knowledge base and returned only when it checks
   out. *)

module SSet = Set.Make (String)

let transitive_closure pairs =
  let rec fix ps =
    let ps' =
      Interp.PSet.fold
        (fun (x, y) acc ->
          Interp.PSet.fold
            (fun (y', z) acc ->
              if y = y' then Interp.PSet.add (x, z) acc else acc)
            ps acc)
        ps ps
    in
    if Interp.PSet.equal ps ps' then ps else fix ps'
  in
  fix pairs

let extract_model ctx (kb : Axiom.kb) st =
  let all_blocked, witness = compute_blocking ctx st in
  (* Directly blocked nodes are KEPT as domain elements (they may be needed
     as distinct ≥-successors); they satisfy their constraints by mirroring
     the outgoing edges of their blocking witness.  Only the subtrees below
     them (indirectly blocked nodes) are dropped. *)
  let directly_blocked x = IMap.mem x witness in
  let keep x = (not (ISet.mem x all_blocked)) || directly_blocked x in
  (* surviving directed edges with their role labels *)
  let kept_edges =
    EMap.fold
      (fun (a, b) rs acc ->
        if keep a && keep b && not (directly_blocked a) then
          ((a, b), rs) :: acc
        else acc)
      st.edges []
  in
  (* base extensions per atomic role name *)
  let base =
    List.fold_left
      (fun m ((a, b), rs) ->
        RSet.fold
          (fun r m ->
            let name, edge =
              match r with
              | Role.Name s -> (s, (a, b))
              | Role.Inv s -> (s, (b, a))
            in
            let cur =
              match SMap.find_opt name m with
              | Some ps -> ps
              | None -> Interp.PSet.empty
            in
            SMap.add name (Interp.PSet.add edge cur) m)
          rs m)
      SMap.empty kept_edges
  in
  (* each directly blocked node mirrors its witness's outgoing edges *)
  let base =
    IMap.fold
      (fun x y m ->
        SMap.map
          (fun ps ->
            Interp.PSet.fold
              (fun (a, b) ps -> if a = y then Interp.PSet.add (x, b) ps else ps)
              ps ps)
          m)
      witness base
  in
  let base_ext r =
    (* extension of a possibly-inverse role from the base edges *)
    match r with
    | Role.Name s -> (
        match SMap.find_opt s base with
        | Some ps -> ps
        | None -> Interp.PSet.empty)
    | Role.Inv s -> (
        match SMap.find_opt s base with
        | Some ps -> Interp.PSet.map (fun (x, y) -> (y, x)) ps
        | None -> Interp.PSet.empty)
  in
  let role_names =
    SSet.union
      (SSet.of_list (SMap.fold (fun k _ acc -> k :: acc) base []))
      (SSet.of_list (Axiom.signature kb).roles)
  in
  (* E(R) = edges of all subroles of R; the canonical extension adds the
     transitive closure of E(T) for every transitive T ⊑* R *)
  let sub_edges r =
    SSet.fold
      (fun name acc ->
        List.fold_left
          (fun acc t ->
            if Hierarchy.sub_of ctx.h t r then
              Interp.PSet.union acc (base_ext t)
            else acc)
          acc
          [ Role.Name name; Role.Inv name ])
      role_names Interp.PSet.empty
  in
  let canonical_ext name =
    let direct = sub_edges (Role.Name name) in
    SSet.fold
      (fun sub acc ->
        List.fold_left
          (fun acc t ->
            if Hierarchy.transitive ctx.h t && Hierarchy.sub_of ctx.h t (Role.Name name)
            then Interp.PSet.union acc (transitive_closure (sub_edges t))
            else acc)
          acc
          [ Role.Name sub; Role.Inv sub ])
      role_names direct
  in
  let roles =
    SSet.fold
      (fun name m -> Interp.SMap.add name (canonical_ext name) m)
      role_names Interp.SMap.empty
  in
  (* concept extensions from the node labels: a name is true where its
     label holds it, and a negatively absorbed name also where the label
     lacks its negation *)
  let add_member a x m =
    let cur =
      match Interp.SMap.find_opt a m with
      | Some s -> s
      | None -> Interp.ESet.empty
    in
    Interp.SMap.add a (Interp.ESet.add x cur) m
  in
  let concepts =
    IMap.fold
      (fun x n m ->
        if keep x then
          let m =
            CSet.fold
              (fun c m ->
                match (c : Concept.t) with
                | Atom a -> add_member a x m
                | _ -> m)
              n.labels m
          in
          SMap.fold
            (fun a _ m ->
              if CSet.mem (Concept.Not (Concept.Atom a)) n.labels then m
              else add_member a x m)
            ctx.unfold_neg m
        else m)
      st.nodes Interp.SMap.empty
  in
  (* datatype successors from the local solver's witness assignments *)
  let exception No_data in
  match
    IMap.fold
      (fun x n (data_roles, values) ->
        if keep x then
          match
            Datacheck.solve
              ~data_supers:(Hierarchy.data_supers ctx.h)
              ~asserted:n.data_asserted
              ~constraints:(CSet.elements n.labels)
          with
          | None -> raise No_data
          | Some assignment ->
              ( List.fold_left
                  (fun m (u, v) ->
                    let cur =
                      match Interp.SMap.find_opt u m with
                      | Some s -> s
                      | None -> Interp.VSet.empty
                    in
                    Interp.SMap.add u (Interp.VSet.add (x, v) cur) m)
                  data_roles assignment,
                List.fold_left (fun vs (_, v) -> v :: vs) values assignment )
        else (data_roles, values))
      st.nodes (Interp.SMap.empty, [])
  with
  | exception No_data -> None
  | data_roles, values ->
      (* data-role hierarchy closure on the assignments *)
      let data_roles =
        Interp.SMap.fold
          (fun u ext m ->
            List.fold_left
              (fun m v ->
                let cur =
                  match Interp.SMap.find_opt v m with
                  | Some s -> s
                  | None -> Interp.VSet.empty
                in
                Interp.SMap.add v (Interp.VSet.union cur ext) m)
              m
              (Hierarchy.data_supers ctx.h u))
          data_roles data_roles
      in
      let domain =
        IMap.fold
          (fun x _ acc -> if keep x then Interp.ESet.add x acc else acc)
          st.nodes Interp.ESet.empty
      in
      let candidate =
        { Interp.domain;
          data_domain = List.sort_uniq Datatype.compare_value values;
          concepts;
          roles;
          data_roles;
          individuals =
            SMap.fold (fun k v m -> Interp.SMap.add k v m) st.names
              Interp.SMap.empty }
      in
      if Interp.is_model candidate kb then Some candidate else None

let graph_model g = extract_model g.g_ctx g.g_kb g.g_state

let kb_model ?max_nodes ?max_branches ?stats ?prov kb =
  Option.bind
    (prepared_run ?max_nodes ?max_branches ?stats ?prov (prepare kb) [])
    graph_model
