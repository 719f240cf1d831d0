type term = Var of string | Ind of string

type atom =
  | Concept_atom of Concept.t * term
  | Role_atom of Role.t * term * term
  | Exact of Truth.t list * atom

type t = { head : string list; body : atom list }

module Strings = Set.Make (String)

let term_vars = function Var v -> [ v ] | Ind _ -> []

let rec atom_vars = function
  | Concept_atom (_, t) -> term_vars t
  | Role_atom (_, t1, t2) -> term_vars t1 @ term_vars t2
  | Exact (_, a) -> atom_vars a

(* the base (probe-able) atom under any stack of exact-value selectors *)
let rec base_atom = function Exact (_, a) -> base_atom a | a -> a

(* the characteristic function of an exact-value selector: a classical
   (two-valued) verdict on the inner atom's Belnap value — [t] when the
   value is exactly in the requested set, [f] otherwise.  Classicality is
   what lets selector atoms ride the designated-answer machinery (incl.
   pruning) unchanged. *)
let characteristic values v =
  if List.mem v values then Truth.True else Truth.False

(* the composed selector of an atom (identity for plain atoms), applied
   outermost-last so nested selectors mean what they say *)
let rec selector = function
  | Exact (values, a) ->
      let inner = selector a in
      fun v -> characteristic values (inner v)
  | Concept_atom _ | Role_atom _ -> Fun.id

let variables q =
  Strings.elements
    (List.fold_left
       (fun acc a -> Strings.union acc (Strings.of_list (atom_vars a)))
       Strings.empty q.body)

let make ~head ~body =
  let q = { head; body } in
  let vs = Strings.of_list (variables q) in
  List.iter
    (fun v ->
      if not (Strings.mem v vs) then
        invalid_arg ("Cq.make: head variable " ^ v ^ " not in body"))
    head;
  q

let resolve binding = function
  | Ind a -> a
  | Var v -> (
      match List.assoc_opt v binding with
      | Some a -> a
      | None -> invalid_arg ("Cq: unbound variable " ^ v))

let rec truth_of_atom para binding = function
  | Concept_atom (c, t) -> Para.instance_truth para (resolve binding t) c
  | Role_atom (r, t1, t2) ->
      Para.role_truth para (resolve binding t1) r (resolve binding t2)
  | Exact (values, a) -> characteristic values (truth_of_atom para binding a)

let truth_of_binding_naive para q binding =
  List.fold_left
    (fun acc atom -> Truth.conj acc (truth_of_atom para binding atom))
    Truth.True q.body

(* [f] is absorbing for the ≤t-meet (it is the ≤t-bottom), so once the
   running meet hits [False] the remaining atoms cannot change the value —
   stop paying oracle calls for them. *)
let truth_of_binding para q binding =
  let rec go acc = function
    | [] -> acc
    | _ when Truth.equal acc Truth.False -> Truth.False
    | atom :: rest -> go (Truth.conj acc (truth_of_atom para binding atom)) rest
  in
  go Truth.True q.body

(* ------------------------------------------------------------------ *)
(* Printable form (also the serve protocol's query syntax, see [parse]) *)

let term_to_string = function Var v -> "?" ^ v | Ind a -> a

let rec atom_to_string = function
  | Concept_atom (c, t) -> Concept.to_string c ^ "(" ^ term_to_string t ^ ")"
  | Role_atom (r, t1, t2) ->
      Role.to_string r ^ "(" ^ term_to_string t1 ^ ", " ^ term_to_string t2
      ^ ")"
  | Exact (values, a) ->
      atom_to_string a ^ "={"
      ^ String.concat "," (List.map Truth.short_string values)
      ^ "}"

let to_string q =
  String.concat ", " (List.map (fun v -> "?" ^ v) q.head)
  ^ " <- "
  ^ String.concat ", " (List.map atom_to_string q.body)

(* ------------------------------------------------------------------ *)
let all_bindings_naive para q =
  let individuals = (Kb4.signature (Session.kb para)).individuals in
  let rec bind acc = function
    | [] -> [ List.rev acc ]
    | v :: rest ->
        List.concat_map (fun a -> bind ((v, a) :: acc) rest) individuals
  in
  List.map
    (fun binding -> (binding, truth_of_binding_naive para q binding))
    (bind [] (variables q))

let project q binding = List.map (fun h -> List.assoc h binding) q.head

(* deduplicate projected tuples, keeping the ≤k-strongest value seen: a
   tuple supported cleanly (t) by one binding and contradictorily (⊤) by
   another reports t if any clean support exists *)
let dedup_designated tuples =
  let dedup =
    List.fold_left
      (fun acc (tuple, v) ->
        match List.assoc_opt tuple acc with
        | None -> (tuple, v) :: acc
        | Some Truth.Both when Truth.equal v Truth.True ->
            (tuple, v) :: List.remove_assoc tuple acc
        | Some _ -> acc)
      [] tuples
  in
  List.stable_sort
    (fun (_, v1) (_, v2) -> Truth.compare v1 v2)
    (List.rev dedup)

let answers_naive para q =
  dedup_designated
    (List.filter_map
       (fun (binding, v) ->
         if Truth.designated v then Some (project q binding, v) else None)
       (all_bindings_naive para q))

(* Exact-value answers keep every requested value (not only designated
   ones), so deduplication is by (tuple, value) pair — first occurrence in
   enumeration order — followed by the same ≤t-rank sort the designated
   surface uses.  Both the plan path and the naive reference feed this
   one function over identically-ordered binding lists, which is what
   makes the two outputs byte-identical. *)
let dedup_exact tuples =
  let seen = Hashtbl.create 16 in
  let dedup =
    List.filter
      (fun tv ->
        if Hashtbl.mem seen tv then false
        else begin
          Hashtbl.replace seen tv ();
          true
        end)
      tuples
  in
  List.stable_sort (fun (_, v1) (_, v2) -> Truth.compare v1 v2) dedup

let exactly_of_bindings q ~values bindings =
  dedup_exact
    (List.filter_map
       (fun (binding, v) ->
         if List.mem v values then Some (project q binding, v) else None)
       bindings)

let answers_exactly_naive para ~values q =
  exactly_of_bindings q ~values (all_bindings_naive para q)

(* ------------------------------------------------------------------ *)
(* The cost-based planner.

   [compile] turns a query into an explicit, explainable [Plan.t]:

   - per-atom selectivity is estimated from told information — ABox
     assertions folded through the told-subsumption closure (upgraded to
     the classification index when it has already been built; [compile]
     never triggers a build) for concept atoms, told role-edge fan-out
     through the told role hierarchy for role atoms — and the per-kind
     observed verdict costs of the session's cost records;
   - atoms are ordered greedily cheapest-first: filters (all variables
     already bound) immediately, then among atoms connected to the bound
     variables the one with the smallest estimated (cardinality × probe
     cost), so the most selective variables bind early;
   - the join strategy for each extension step is picked adaptively at
     RUN time from the actual intermediate binding-set cardinality:
     nested-loop with substitution below [threshold] rows, hash-join on
     the shared variables above it (the atom's relation is materialized
     once over the distinct bound tuples as one batched oracle fan-out,
     then hash-merged) — so a mis-estimated plan still executes soundly
     and still switches strategy on real cardinalities.

   Correctness note for pruning: the prune regime serves only the
   designated-answer surface, and a row whose running conjunction is
   not designated can never recover — [conj Neither x] is [Neither] or
   [f] for every [x], and [f] is absorbing — so prune drops every
   non-designated row (and non-designated relation entry: [conj r v0]
   with [v0] in {[Neither], [f]} lands in {[Neither], [f]} for
   designated [r]).  The non-prune regime keeps rows and relation
   total: [Truth.conj Both Neither = False], so a [Neither] entry can
   still flip a surviving row to [f]. *)

(* observed strategy picks, mirrored into the Obs registry *)
let c_plan_nested = Obs.counter "cq.plan.nested_loop"
let c_plan_hash = Obs.counter "cq.plan.hash_join"

module Plan = struct
  type strategy = Nested_loop | Hash_join

  let strategy_name = function
    | Nested_loop -> "nested_loop"
    | Hash_join -> "hash_join"

  let strategy_of_name = function
    | "nested" | "nested_loop" -> Some Nested_loop
    | "hash" | "hash_join" -> Some Hash_join
    | _ -> None

  type slot_term = Slot of int | Const of string

  type step = {
    p_atom : atom;
    p_terms : slot_term list;  (* positional: 1 concept / 2 role terms *)
    p_new : int list;  (* slots first bound here (distinct) *)
    p_est_rows : int;  (* estimated output cardinality at compile time *)
    p_est_cost_ns : float;  (* estimated oracle cost of one atom probe *)
    mutable p_strategy : strategy option;  (* run-time pick; filters None *)
    mutable p_actual_rows : int;  (* binding-set size after this step *)
    mutable p_probes : int;  (* atom evaluations paid at this step *)
  }

  type plan = {
    pl_para : Para.t;
    pl_query : t;
    pl_vars : string array;  (* binding order: slot i holds pl_vars.(i) *)
    pl_threshold : int;
    pl_forced : strategy option;
    pl_order : [ `Cost | `Syntactic ];
    pl_steps : step list;
    mutable pl_executed : bool;
  }

  (* read-side views: the stable, JSON-renderable plan description *)

  type step_view = {
    sv_atom : string;
    sv_kind : string;  (* "concept" | "role" *)
    sv_binds : string list;
    sv_filter : bool;
    sv_est_rows : int;
    sv_est_cost_ns : float;
    sv_strategy : string option;  (* after execution; filters "filter" *)
    sv_actual_rows : int option;
    sv_probes : int option;
  }

  type view = {
    v_query : string;
    v_vars : string list;
    v_individuals : int;
    v_threshold : int;
    v_forced : string option;
    v_order : string;
    v_executed : bool;
    v_steps : step_view list;
  }
end

type plan = Plan.plan

(* ---- told statistics ---------------------------------------------- *)

let rec conjunct_atoms = function
  | Concept.Atom a -> [ a ]
  | Concept.And (c, d) -> conjunct_atoms c @ conjunct_atoms d
  | _ -> []

type statistics = {
  st_n : int;
  st_counts : (string, int) Hashtbl.t;  (* atom -> told instance count *)
  st_pairs : (string, int) Hashtbl.t;  (* base role -> told edge count *)
  st_srcs : (string, int) Hashtbl.t;  (* base role -> distinct sources *)
  st_probe_ns : string -> float;  (* query kind -> observed avg ns *)
}

let tbl_get tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k)
let tbl_add tbl k n = Hashtbl.replace tbl k (n + tbl_get tbl k)

(* reflexive-transitive closure over an edge table, memo-free (the
   signatures involved are small; cycles are handled by the seen set) *)
let closure edges a =
  let rec go seen = function
    | [] -> seen
    | x :: rest ->
        if List.mem x seen then go seen rest
        else
          go (x :: seen)
            (Option.value ~default:[] (Hashtbl.find_opt edges x) @ rest)
  in
  go [] [ a ]

let statistics para =
  let kb = Session.kb para in
  let signature = Kb4.signature kb in
  let n = List.length signature.Axiom.individuals in
  (* concept supers: prefer the classification index when it is already
     built (exact subsumptions); otherwise the told closure.  Never
     force a build here — compiling must stay cheap. *)
  let concept_supers =
    match Session.classification_if_built para with
    | Some cls ->
        let h = Hashtbl.create 16 in
        List.iter
          (fun (a, sups) -> Hashtbl.replace h a (a :: sups))
          cls.Classify.supers;
        fun a -> Option.value ~default:[ a ] (Hashtbl.find_opt h a)
    | None ->
        let edges = Hashtbl.create 16 in
        List.iter
          (fun (a, b) ->
            Hashtbl.replace edges a
              (b :: Option.value ~default:[] (Hashtbl.find_opt edges a)))
          (Session.told_subsumptions kb);
        fun a -> closure edges a
  in
  let role_supers =
    let edges = Hashtbl.create 8 in
    List.iter
      (function
        | Kb4.Role_inclusion ((Kb4.Internal | Kb4.Strong), r, s) ->
            let a = Role.base r and b = Role.base s in
            Hashtbl.replace edges a
              (b :: Option.value ~default:[] (Hashtbl.find_opt edges a))
        | _ -> ())
      kb.Kb4.tbox;
    fun r -> closure edges r
  in
  let seen_inst : (string * string, unit) Hashtbl.t = Hashtbl.create 64 in
  let seen_src : (string * string, unit) Hashtbl.t = Hashtbl.create 32 in
  let counts = Hashtbl.create 16 in
  let pairs = Hashtbl.create 8 in
  let srcs = Hashtbl.create 8 in
  List.iter
    (function
      | Axiom.Instance_of (i, c) ->
          List.iter
            (fun a ->
              List.iter
                (fun s ->
                  if not (Hashtbl.mem seen_inst (s, i)) then begin
                    Hashtbl.replace seen_inst (s, i) ();
                    tbl_add counts s 1
                  end)
                (concept_supers a))
            (conjunct_atoms c)
      | Axiom.Role_assertion (x, r, _) ->
          List.iter
            (fun s ->
              tbl_add pairs s 1;
              if not (Hashtbl.mem seen_src (s, x)) then begin
                Hashtbl.replace seen_src (s, x) ();
                tbl_add srcs s 1
              end)
            (role_supers (Role.base r))
      | _ -> ())
    kb.Kb4.abox;
  (* observed per-verdict cost: per query kind from the retained cost
     records, global average as fallback, 1.0 when the session is cold
     (a cold compile is then fully deterministic) *)
  let totals = Session.cost_totals para in
  let global =
    if totals.Oracle.verdicts > 0 then
      totals.Oracle.wall_ns /. float_of_int totals.Oracle.verdicts
    else 1.0
  in
  let by_kind : (string, float * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (c : Oracle.cost) ->
      let sum, cnt =
        Option.value ~default:(0.0, 0) (Hashtbl.find_opt by_kind c.Oracle.c_kind)
      in
      Hashtbl.replace by_kind c.Oracle.c_kind
        (sum +. c.Oracle.c_wall_ns, cnt + 1))
    (Session.costs para);
  let probe_ns kind =
    match Hashtbl.find_opt by_kind kind with
    | Some (sum, cnt) when cnt > 0 -> sum /. float_of_int cnt
    | _ -> global
  in
  { st_n = n; st_counts = counts; st_pairs = pairs; st_srcs = srcs;
    st_probe_ns = probe_ns }

(* estimated number of individuals with a designated value for [c],
   from told information only — an ordering signal, not a bound *)
let rec est_concept st c =
  let n = st.st_n in
  match c with
  | Concept.Top -> n
  | Concept.Bottom -> 0
  | Concept.Atom a -> min n (tbl_get st.st_counts a)
  | Concept.Not c -> max 0 (n - est_concept st c)
  | Concept.And (c, d) -> min (est_concept st c) (est_concept st d)
  | Concept.Or (c, d) -> min n (est_concept st c + est_concept st d)
  | Concept.One_of os -> min n (List.length os)
  | Concept.Exists (r, _) | Concept.At_least (_, r) ->
      min n (tbl_get st.st_srcs (Role.base r))
  | Concept.Forall _ | Concept.At_most _ -> n
  | Concept.Data_exists _ | Concept.Data_at_least _ -> (n + 1) / 2
  | Concept.Data_forall _ | Concept.Data_at_most _ -> n

let est_pairs st r = tbl_get st.st_pairs (Role.base r)

(* estimated output rows contributed by [atom] once the variables in
   [bound] are fixed: the cardinality signal the greedy order minimizes *)
let rec est_atom_rows st bound atom =
  let free t =
    match t with Var v -> not (Strings.mem v bound) | Ind _ -> false
  in
  match atom with
  | Concept_atom (c, t) -> if free t then est_concept st c else 1
  | Role_atom (r, t1, t2) -> (
      let pairs = est_pairs st r in
      match (free t1, free t2) with
      | false, false -> 1
      | true, true -> pairs
      | _ -> max 1 (pairs / max 1 st.st_n))
  | Exact (_, a) ->
      (* the selector reshuffles which rows survive, not how many the
         probe fan-out produces — estimate on the inner atom *)
      est_atom_rows st bound a

let rec probe_cost st = function
  | Concept_atom _ -> st.st_probe_ns "instance" +. st.st_probe_ns "not_instance"
  | Role_atom _ -> st.st_probe_ns "role_pos" +. st.st_probe_ns "role_neg"
  | Exact (_, a) -> probe_cost st a

let compile ?(threshold = 8) ?force ?(order = `Cost) para q =
  let st = statistics para in
  let threshold = max 0 threshold in
  (* greedy cheapest-first order: filters immediately, then the
     connected atom with the smallest estimated rows × probe cost;
     syntactic index breaks ties so plans are deterministic *)
  let indexed = List.mapi (fun i a -> (i, a)) q.body in
  let ordered =
    match order with
    | `Syntactic -> indexed
    | `Cost ->
        let rec pick bound acc = function
          | [] -> List.rev acc
          | remaining ->
              let score (i, a) =
                let vs = Strings.of_list (atom_vars a) in
                let new_vars = Strings.diff vs bound in
                if Strings.is_empty new_vars then (0, 0, probe_cost st a, i)
                else
                  let connected =
                    Strings.is_empty bound
                    || not (Strings.is_empty (Strings.inter vs bound))
                  in
                  let rows = est_atom_rows st bound a in
                  ( 1,
                    (if connected then 0 else 1),
                    float_of_int rows *. probe_cost st a,
                    i )
              in
              let best =
                List.fold_left
                  (fun best cand ->
                    if compare (score cand) (score best) < 0 then cand
                    else best)
                  (List.hd remaining) (List.tl remaining)
              in
              let bound =
                Strings.union bound (Strings.of_list (atom_vars (snd best)))
              in
              pick bound (best :: acc)
                (List.filter (fun (i, _) -> i <> fst best) remaining)
        in
        pick Strings.empty [] indexed
  in
  (* slot assignment in first-binding order *)
  let slots = Hashtbl.create 8 in
  let var_order = ref [] in
  let slot_of v =
    match Hashtbl.find_opt slots v with
    | Some s -> s
    | None ->
        let s = Hashtbl.length slots in
        Hashtbl.replace slots v s;
        var_order := v :: !var_order;
        s
  in
  let bound = ref Strings.empty in
  let steps =
    List.map
      (fun (_, a) ->
        let terms =
          match base_atom a with
          | Concept_atom (_, t) -> [ t ]
          | Role_atom (_, t1, t2) -> [ t1; t2 ]
          | Exact _ -> assert false
        in
        let est_rows = est_atom_rows st !bound a in
        let fresh =
          List.sort_uniq compare
            (List.filter_map
               (function
                 | Var v when not (Strings.mem v !bound) -> Some v
                 | _ -> None)
               terms)
        in
        let slot_terms =
          List.map
            (function Var v -> Plan.Slot (slot_of v) | Ind i -> Plan.Const i)
            terms
        in
        let new_slots = List.map (Hashtbl.find slots) fresh in
        bound := Strings.union !bound (Strings.of_list fresh);
        { Plan.p_atom = a;
          p_terms = slot_terms;
          p_new = List.sort_uniq compare new_slots;
          p_est_rows = est_rows;
          p_est_cost_ns = probe_cost st a;
          p_strategy = None;
          p_actual_rows = -1;
          p_probes = -1 })
      ordered
  in
  { Plan.pl_para = para;
    pl_query = q;
    pl_vars = Array.of_list (List.rev !var_order);
    pl_threshold = threshold;
    pl_forced = force;
    pl_order = order;
    pl_steps = steps;
    pl_executed = false }

(* ---- execution ---------------------------------------------------- *)

type row = { r_vals : string array; r_truth : Truth.t }

let ground_term vals = function Plan.Const a -> a | Plan.Slot i -> vals.(i)

let eval_step para (step : Plan.step) vals =
  let sel = selector step.Plan.p_atom in
  sel
    (match (base_atom step.Plan.p_atom, step.Plan.p_terms) with
    | Concept_atom (c, _), [ t ] ->
        Para.instance_truth para (ground_term vals t) c
    | Role_atom (r, _, _), [ t1; t2 ] ->
        Para.role_truth para (ground_term vals t1) r (ground_term vals t2)
    | _ -> assert false)

(* one batched oracle fan-out for a hash-join materialization: ground
   every (key, candidate) combination of the step's atom and submit the
   whole relation as one [check_all] batch; repeated questions share one
   cached verdict *)
let eval_batch para (step : Plan.step) grounds =
  let sel = selector step.Plan.p_atom in
  match base_atom step.Plan.p_atom with
  | Concept_atom (c, _) ->
      List.map
        (fun (_, _, v) -> sel v)
        (Para.instance_truths para
           (List.map
              (fun vals ->
                match step.Plan.p_terms with
                | [ t ] -> (ground_term vals t, c)
                | _ -> assert false)
              grounds))
  | Role_atom (r, _, _) ->
      List.map
        (fun (_, _, _, v) -> sel v)
        (Para.role_truths para
           (List.map
              (fun vals ->
                match step.Plan.p_terms with
                | [ t1; t2 ] -> (ground_term vals t1, r, ground_term vals t2)
                | _ -> assert false)
              grounds))
  | Exact _ -> assert false

(* the prune regime's row filter: only designated prefixes can still
   reach a designated answer (see the correctness note above) *)
let pruned ~prune v = prune && not (Truth.designated v)

let exec (plan : plan) ~prune =
  let para = plan.Plan.pl_para in
  let individuals = (Kb4.signature (Session.kb para)).Axiom.individuals in
  let nvars = Array.length plan.Plan.pl_vars in
  let table = ref [ { r_vals = Array.make nvars ""; r_truth = Truth.True } ] in
  List.iter
    (fun (step : Plan.step) ->
      (* rows already valued [f] (non-prune regime only) extend by pure
         cross product: absorption says no probe can change them *)
      let live, dead =
        List.partition
          (fun r -> not (Truth.equal r.r_truth Truth.False))
          !table
      in
      (match step.Plan.p_new with
      | [] ->
          let probes = ref 0 in
          let live' =
            List.filter_map
              (fun r ->
                incr probes;
                let v = Truth.conj r.r_truth (eval_step para step r.r_vals) in
                if pruned ~prune v then None
                else Some { r with r_truth = v })
              live
          in
          step.Plan.p_strategy <- None;
          step.Plan.p_probes <- !probes;
          table := live' @ dead
      | new_slots ->
          (* candidate assignments for the slots this atom binds *)
          let cands =
            List.fold_left
              (fun acc s ->
                List.concat_map
                  (fun partial ->
                    List.map (fun a -> (s, a) :: partial) individuals)
                  acc)
              [ [] ] new_slots
          in
          let n_cands = List.length cands in
          let bound_slots =
            List.sort_uniq compare
              (List.filter_map
                 (function
                   | Plan.Slot s when not (List.mem s new_slots) -> Some s
                   | _ -> None)
                 step.Plan.p_terms)
          in
          let key_of r = List.map (fun s -> (s, r.r_vals.(s))) bound_slots in
          let keys =
            List.sort_uniq compare (List.map key_of live)
          in
          let rows = List.length live in
          let nested_probes = rows * n_cands in
          let hash_probes = List.length keys * n_cands in
          let strategy =
            match plan.Plan.pl_forced with
            | Some s -> s
            | None ->
                if rows >= plan.Plan.pl_threshold
                   && hash_probes < nested_probes
                then Plan.Hash_join
                else Plan.Nested_loop
          in
          let extend r assigns =
            let vals = Array.copy r.r_vals in
            List.iter (fun (s, a) -> vals.(s) <- a) assigns;
            vals
          in
          let out = ref [] in
          let probes = ref 0 in
          (match strategy with
          | Plan.Nested_loop ->
              List.iter
                (fun r ->
                  List.iter
                    (fun cand ->
                      let vals = extend r cand in
                      incr probes;
                      let v = Truth.conj r.r_truth (eval_step para step vals) in
                      if not (pruned ~prune v) then
                        out := { r_vals = vals; r_truth = v } :: !out)
                    cands)
                live
          | Plan.Hash_join ->
              let combos =
                List.concat_map
                  (fun key -> List.map (fun cand -> (key, cand)) cands)
                  keys
              in
              let scratch = { r_vals = Array.make nvars ""; r_truth = Truth.True } in
              let grounds =
                List.map
                  (fun (key, cand) -> extend scratch (key @ cand))
                  combos
              in
              let values = eval_batch para step grounds in
              probes := List.length combos;
              (* relation keyed by the shared (bound) slots; the prune
                 regime keeps only designated entries (a non-designated
                 [v0] cannot produce a designated conjunction), the
                 non-prune regime keeps the relation total *)
              let rel = Hashtbl.create (max 16 (List.length keys)) in
              List.iter2
                (fun (key, cand) v ->
                  if not (pruned ~prune v) then
                    Hashtbl.replace rel key
                      ((cand, v)
                      :: Option.value ~default:[] (Hashtbl.find_opt rel key)))
                combos values;
              List.iter
                (fun r ->
                  match Hashtbl.find_opt rel (key_of r) with
                  | None -> ()
                  | Some entries ->
                      List.iter
                        (fun (cand, v0) ->
                          let v = Truth.conj r.r_truth v0 in
                          if not (pruned ~prune v) then
                            out :=
                              { r_vals = extend r cand; r_truth = v } :: !out)
                        entries)
                live);
          List.iter
            (fun r ->
              List.iter
                (fun cand ->
                  out := { r_vals = extend r cand; r_truth = Truth.False }
                         :: !out)
                cands)
            dead;
          step.Plan.p_strategy <- Some strategy;
          step.Plan.p_probes <- !probes;
          table := !out);
      step.Plan.p_actual_rows <- List.length !table)
    plan.Plan.pl_steps;
  plan.Plan.pl_executed <- true;
  List.iter
    (fun (step : Plan.step) ->
      match step.Plan.p_strategy with
      | Some Plan.Nested_loop -> Obs.add c_plan_nested 1
      | Some Plan.Hash_join -> Obs.add c_plan_hash 1
      | None -> ())
    plan.Plan.pl_steps;
  !table

(* Replays the naive enumeration order (variables in sorted order,
   individuals in signature order), so every strategy and atom order
   produces byte-identical output lists. *)
let canonical_rows (plan : plan) rows =
  let individuals = (Kb4.signature (Session.kb plan.Plan.pl_para)).Axiom.individuals in
  let rank = Hashtbl.create 32 in
  List.iteri (fun i a -> Hashtbl.replace rank a i) individuals;
  let sorted_vars = variables plan.Plan.pl_query in
  let slot = Hashtbl.create 8 in
  Array.iteri (fun i v -> Hashtbl.replace slot v i) plan.Plan.pl_vars;
  let slots = List.map (Hashtbl.find slot) sorted_vars in
  List.map snd
    (List.sort
       (fun (k1, _) (k2, _) -> compare k1 k2)
       (List.map
          (fun r ->
            ( List.map (fun s -> Hashtbl.find rank r.r_vals.(s)) slots, r ))
          rows))

let binding_of (plan : plan) r =
  let slot = Hashtbl.create 8 in
  Array.iteri (fun i v -> Hashtbl.replace slot v i) plan.Plan.pl_vars;
  List.map
    (fun v -> (v, r.r_vals.(Hashtbl.find slot v)))
    (variables plan.Plan.pl_query)

let run plan =
  Obs.with_span ~cat:"core" "cq.plan.run" (fun () ->
      let rows = canonical_rows plan (exec plan ~prune:true) in
      dedup_designated
        (List.filter_map
           (fun r ->
             if Truth.designated r.r_truth then
               Some (project plan.Plan.pl_query (binding_of plan r), r.r_truth)
             else None)
           rows))

let run_bindings plan =
  Obs.with_span ~cat:"core" "cq.plan.run_bindings" (fun () ->
      List.map
        (fun r -> (binding_of plan r, r.r_truth))
        (canonical_rows plan (exec plan ~prune:false)))

(* Exact-value execution must use the non-prune regime: selecting [f] or
   ⊥ tuples means keeping exactly the rows pruning is licensed to drop. *)
let run_exactly plan ~values =
  Obs.with_span ~cat:"core" "cq.plan.run_exactly" (fun () ->
      exactly_of_bindings plan.Plan.pl_query ~values
        (List.map
           (fun r -> (binding_of plan r, r.r_truth))
           (canonical_rows plan (exec plan ~prune:false))))

let strategy_counts (plan : plan) =
  let nested = ref 0 and hash = ref 0 in
  List.iter
    (fun (s : Plan.step) ->
      match s.Plan.p_strategy with
      | Some Plan.Nested_loop -> incr nested
      | Some Plan.Hash_join -> incr hash
      | None -> ())
    plan.Plan.pl_steps;
  List.filter
    (fun (_, n) -> n > 0)
    [ ("hash_join", !hash); ("nested_loop", !nested) ]

(* ---- explain: the stable plan description ------------------------- *)

let explain (plan : plan) =
  let step_view (s : Plan.step) =
    let slot i = plan.Plan.pl_vars.(i) in
    { Plan.sv_atom = atom_to_string s.Plan.p_atom;
      sv_kind =
        (match base_atom s.Plan.p_atom with
        | Concept_atom _ -> "concept"
        | Role_atom _ -> "role"
        | Exact _ -> assert false);
      sv_binds = List.map slot s.Plan.p_new;
      sv_filter = s.Plan.p_new = [];
      sv_est_rows = s.Plan.p_est_rows;
      sv_est_cost_ns = s.Plan.p_est_cost_ns;
      sv_strategy =
        (if not plan.Plan.pl_executed then None
         else
           match s.Plan.p_strategy with
           | Some st -> Some (Plan.strategy_name st)
           | None -> Some "filter");
      sv_actual_rows =
        (if s.Plan.p_actual_rows >= 0 then Some s.Plan.p_actual_rows else None);
      sv_probes = (if s.Plan.p_probes >= 0 then Some s.Plan.p_probes else None)
    }
  in
  { Plan.v_query = to_string plan.Plan.pl_query;
    v_vars = Array.to_list plan.Plan.pl_vars;
    v_individuals =
      List.length (Kb4.signature (Session.kb plan.Plan.pl_para)).Axiom.individuals;
    v_threshold = plan.Plan.pl_threshold;
    v_forced = Option.map Plan.strategy_name plan.Plan.pl_forced;
    v_order =
      (match plan.Plan.pl_order with `Cost -> "cost" | `Syntactic -> "syntactic");
    v_executed = plan.Plan.pl_executed;
    v_steps = List.map step_view plan.Plan.pl_steps }

let plan_schema = "dl4-plan/1"

let explain_json plan =
  let v = explain plan in
  Json_lite.(
    let strs l = Arr (List.map (fun s -> Str s) l) in
    let opt f = function None -> Null | Some x -> f x in
    let step (s : Plan.step_view) =
      Obj
        [ ("atom", Str s.Plan.sv_atom);
          ("kind", Str s.Plan.sv_kind);
          ("binds", strs s.Plan.sv_binds);
          ("filter", Bool s.Plan.sv_filter);
          ("est_rows", int s.Plan.sv_est_rows);
          ("est_cost_ns", Num s.Plan.sv_est_cost_ns);
          ("strategy", opt (fun st -> Str st) s.Plan.sv_strategy);
          ("actual_rows", opt int s.Plan.sv_actual_rows);
          ("probes", opt int s.Plan.sv_probes) ]
    in
    to_string
      (Obj
         [ ("schema", Str plan_schema);
           ("query", Str v.Plan.v_query);
           ("vars", strs v.Plan.v_vars);
           ("individuals", int v.Plan.v_individuals);
           ("threshold", int v.Plan.v_threshold);
           ("forced", opt (fun f -> Str f) v.Plan.v_forced);
           ("order", Str v.Plan.v_order);
           ("executed", Bool v.Plan.v_executed);
           ("steps", Arr (List.map step v.Plan.v_steps)) ]))

(* ---- the public query API, as thin wrappers over the planner ------ *)

let answers para q =
  Obs.with_span ~cat:"core" "cq.answers" (fun () -> run (compile para q))

let all_bindings para q =
  Obs.with_span ~cat:"core" "cq.all_bindings" (fun () ->
      run_bindings (compile para q))

let answers_exactly para ~values q =
  Obs.with_span ~cat:"core" "cq.answers_exactly" (fun () ->
      run_exactly (compile para q) ~values)

(* ------------------------------------------------------------------ *)
(* Surface syntax:  [?x, ?y <- Doctor(?x), hasPatient(?x, ?y)]
   Variables are [?]-prefixed; bare terms are individuals.  Without a
   [<-] the whole string is the body and every variable is projected
   (sorted).  Concept prefixes parse with the full [Surface] concept
   grammar; a role atom takes two arguments and accepts the [r^-]
   inverse spelling. *)

let split_top_level sep s =
  let parts = ref [] and buf = Buffer.create 16 and depth = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '(' | '{' | '[' ->
          incr depth;
          Buffer.add_char buf c
      | ')' | '}' | ']' ->
          decr depth;
          Buffer.add_char buf c
      | c when c = sep && !depth = 0 ->
          parts := Buffer.contents buf :: !parts;
          Buffer.clear buf
      | c -> Buffer.add_char buf c)
    s;
  parts := Buffer.contents buf :: !parts;
  List.rev !parts

let parse_term s =
  let s = String.trim s in
  if s = "" then Error "empty term"
  else if s.[0] = '?' then
    let v = String.sub s 1 (String.length s - 1) in
    if v = "" then Error "empty variable name after '?'" else Ok (Var v)
  else Ok (Ind s)

(* an exact-value selector suffix: [=B] or [={B,N}] after the closing
   paren (braces keep multi-value sets intact through the top-level comma
   split) *)
let parse_value_set s =
  let s = String.trim s in
  let n = String.length s in
  let s =
    if n >= 2 && s.[0] = '{' && s.[n - 1] = '}' then String.sub s 1 (n - 2)
    else s
  in
  Truth.set_of_string s

let rec parse_atom s =
  let s = String.trim s in
  let n = String.length s in
  if n = 0 then Error "empty atom"
  else if s.[n - 1] <> ')' then (
    match String.rindex_opt s '=' with
    | Some i when i > 0 && String.contains (String.sub s 0 i) ')' -> (
        match
          ( parse_atom (String.sub s 0 i),
            parse_value_set (String.sub s (i + 1) (n - i - 1)) )
        with
        | Ok a, Ok values -> Ok (Exact (values, a))
        | (Error _ as e), _ -> e
        | _, Error e -> Error (e ^ " in atom " ^ s))
    | _ -> Error ("atom " ^ s ^ " does not end with ')'"))
  else
    match String.rindex_opt s '(' with
    | None -> Error ("atom " ^ s ^ " has no argument list")
    | Some i ->
        let prefix = String.trim (String.sub s 0 i) in
        let args =
          List.map String.trim
            (String.split_on_char ',' (String.sub s (i + 1) (n - i - 2)))
        in
        let terms =
          List.fold_right
            (fun a acc ->
              match (parse_term a, acc) with
              | Ok t, Ok ts -> Ok (t :: ts)
              | (Error _ as e), _ -> e
              | _, (Error _ as e) -> e)
            args (Ok [])
        in
        if prefix = "" then Error ("atom " ^ s ^ " has no predicate")
        else (
          match terms with
          | Error e -> Error (e ^ " in atom " ^ s)
          | Ok [ t ] -> (
              match Surface.parse_concept prefix with
              | Ok c -> Ok (Concept_atom (c, t))
              | Error e ->
                  Error
                    ("cannot parse concept " ^ prefix ^ ": " ^ e.Surface.message))
          | Ok [ t1; t2 ] ->
              let role =
                if String.length prefix > 2
                   && String.sub prefix (String.length prefix - 2) 2 = "^-"
                then
                  Role.inv
                    (Role.name
                       (String.trim
                          (String.sub prefix 0 (String.length prefix - 2))))
                else Role.name prefix
              in
              if String.contains (Role.base role) ' ' then
                Error ("invalid role name in atom " ^ s)
              else Ok (Role_atom (role, t1, t2))
          | Ok _ -> Error ("atom " ^ s ^ " must have 1 or 2 arguments"))

let find_arrow s =
  let n = String.length s in
  let rec go i =
    if i + 1 >= n then None
    else if s.[i] = '<' && s.[i + 1] = '-' then Some i
    else go (i + 1)
  in
  go 0

let parse src =
  let head_src, body_src =
    match find_arrow src with
    | Some i ->
        ( Some (String.sub src 0 i),
          String.sub src (i + 2) (String.length src - i - 2) )
    | None -> (None, src)
  in
  let atom_srcs =
    List.filter
      (fun s -> String.trim s <> "")
      (split_top_level ',' body_src)
  in
  if atom_srcs = [] then Error "empty query body"
  else
    let body =
      List.fold_right
        (fun s acc ->
          match (parse_atom s, acc) with
          | Ok a, Ok atoms -> Ok (a :: atoms)
          | (Error _ as e), _ -> e
          | _, (Error _ as e) -> e)
        atom_srcs (Ok [])
    in
    match body with
    | Error e -> Error e
    | Ok body -> (
        let head =
          match head_src with
          | None -> Ok (variables { head = []; body })
          | Some h ->
              List.fold_right
                (fun s acc ->
                  match acc with
                  | Error _ as e -> e
                  | Ok vs ->
                      let s = String.trim s in
                      if s = "" then Ok vs
                      else if String.length s > 1 && s.[0] = '?' then
                        Ok (String.sub s 1 (String.length s - 1) :: vs)
                      else
                        Error
                          ("head term " ^ s
                         ^ " is not a ?-prefixed variable"))
                (String.split_on_char ',' h)
                (Ok [])
        in
        match head with
        | Error e -> Error e
        | Ok head -> (
            match make ~head ~body with
            | q -> Ok q
            | exception Invalid_argument msg -> Error msg))
