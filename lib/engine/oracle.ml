(* The query vocabulary lives in [Backend] so both decision procedures
   are written against it without depending on the oracle; the alias
   keeps [Oracle.Consistent] etc. valid for every caller. *)
type query = Backend.query =
  | Consistent
  | Concept_sat of Concept.t
  | Instance of string * Concept.t
  | Not_instance of string * Concept.t
  | Role_pos of string * Role.t * string
  | Role_neg of string * Role.t * string

(* Canonical cache keys: concepts go through [Qkey] so syntactically
   different but canonically identical queries share one verdict. *)
module Key = struct
  type t =
    | K_consistent
    | K_sat of Qkey.t
    | K_instance of string * Qkey.t
    | K_not_instance of string * Qkey.t
    | K_role_pos of string * Role.t * string
    | K_role_neg of string * Role.t * string

  let equal a b =
    match (a, b) with
    | K_consistent, K_consistent -> true
    | K_sat k1, K_sat k2 -> Qkey.equal k1 k2
    | K_instance (x, k1), K_instance (y, k2)
    | K_not_instance (x, k1), K_not_instance (y, k2) ->
        String.equal x y && Qkey.equal k1 k2
    | K_role_pos (a1, r1, b1), K_role_pos (a2, r2, b2)
    | K_role_neg (a1, r1, b1), K_role_neg (a2, r2, b2) ->
        String.equal a1 a2 && Role.equal r1 r2 && String.equal b1 b2
    | _ -> false

  let hash = function
    | K_consistent -> 0x5eed
    | K_sat k -> 3 * Qkey.hash k
    | K_instance (x, k) -> (5 * Qkey.hash k) + Hashtbl.hash x
    | K_not_instance (x, k) -> (7 * Qkey.hash k) + Hashtbl.hash x
    | K_role_pos (a, r, b) -> 11 * Hashtbl.hash (a, Role.to_string r, b)
    | K_role_neg (a, r, b) -> 13 * Hashtbl.hash (a, Role.to_string r, b)
end

module Cache = Verdict_cache.Make (Key)
module KH = Hashtbl.Make (Key)

let key_of = function
  | Consistent -> Key.K_consistent
  | Concept_sat c -> Key.K_sat (Qkey.of_concept c)
  | Instance (a, c) -> Key.K_instance (a, Qkey.of_concept c)
  | Not_instance (a, c) -> Key.K_not_instance (a, Qkey.of_concept c)
  | Role_pos (a, r, b) -> Key.K_role_pos (a, r, b)
  | Role_neg (a, r, b) -> Key.K_role_neg (a, r, b)

(* Registry mirrors of the per-instance counters below. *)
let c_tableau_calls = Obs.counter "oracle.tableau_calls"
let c_slow = Obs.counter "oracle.slow_verdicts"
let c_route_tableau = Obs.counter "oracle.route.tableau"
let c_route_horn = Obs.counter "oracle.route.horn"
let g_cache_size = Obs.gauge "oracle.cache.size"
let h_eval = Obs.histogram "oracle.eval_ns"

(* Per-verdict provenance: what a tableau run touched while computing a
   verdict — the dependency set for selective cache invalidation. *)
type prov_entry = { individuals : string list; concepts : string list }

(* Verdicts whose recorded provenance is equal share one group, and the
   dependency index posts groups, not keys: a census of thousands of
   verdicts over a few hundred distinct entries posts each entry once,
   and a verdict leaving the cache only leaves its group's key set. *)
module Entry = struct
  type t = prov_entry

  let equal a b =
    List.equal String.equal a.individuals b.individuals
    && List.equal String.equal a.concepts b.concepts

  (* One traversal of both lists.  The limits reach ~120 symbols; the
     default 10 would put every entry sharing its first few names in one
     bucket. *)
  let hash (e : t) = Hashtbl.hash_param 256 256 e
end

module EH = Hashtbl.Make (Entry)

module IH = Hashtbl.Make (Int)

type group = {
  g_id : int;  (* the group's key in every posting table *)
  g_entry : prov_entry;
  g_keys : unit KH.t;  (* the resident verdicts that recorded [g_entry] *)
}

(* Per-verdict cost record: the tableau work one computed verdict paid,
   attributed at the check/check_all boundary.  Recorded unconditionally
   (like provenance) by diffing the computing backend's stats cells
   around the eval — no Obs sink needs to be armed. *)
type cost = {
  c_query : string;  (* printable form of the query *)
  c_kind : string;  (* query_kind *)
  c_backend : string;  (* which decision procedure computed it *)
  c_trace : string;  (* trace ID of the request that paid for it *)
  c_wall_ns : float;
  c_work : Tableau.stats;  (* the eval's diff of the backend's cells *)
  mutable c_hits : int;  (* cache hits served since computation *)
}

(* Session-level aggregate, maintained independently of cache eviction
   so long sessions keep honest totals while per-key records stay
   bounded by cache residency. *)
type cost_totals = {
  verdicts : int;  (* computed (cache misses paid with a tableau) *)
  cache_served : int;  (* checks answered from the cache *)
  slow : int;  (* verdicts at or over the slow-log threshold *)
  wall_ns : float;
  work : Tableau.stats;  (* the sum of every computed verdict's c_work *)
  backends : (string * int) list;  (* computed verdicts per backend *)
}

type cost_acc = {
  mutable a_verdicts : int;
  mutable a_served : int;
  mutable a_slow : int;
  mutable a_wall : float;
  a_work : Tableau.stats;
  a_backends : (string, int) Hashtbl.t;
}

let fresh_acc () =
  { a_verdicts = 0;
    a_served = 0;
    a_slow = 0;
    a_wall = 0.0;
    a_work = Tableau.fresh_stats ();
    a_backends = Hashtbl.create 4 }

type config = {
  cache_capacity : int;
  max_nodes : int;
  max_branches : int;
  backend : Backend.choice;
}

let default_cache_capacity = 4096

let default_config =
  { cache_capacity = default_cache_capacity;
    max_nodes = 20_000;
    max_branches = max_int;
    backend = Backend.Tableau }

(* One resident verdict: the verdict with its provenance group and its
   cost record, so the three enter and leave residency together.  The
   consistency bit re-stored across a flip keeps its group but has no
   cost record; an imported entry may carry neither. *)
type resident = { verdict : bool; group : group option; cost : cost option }

type t = {
  mutable kb : Kb4.t;
  mutable classical_kb : Axiom.kb;
  config : config;
  primary : Reasoner.t;
  mutable horn : Completion.t option;
      (* present when the routing choice and K̄'s fragment allow it;
         rebuilt by [apply] (deltas can change both the KB and its
         fragment eligibility) *)
  cache : resident Cache.t;
  groups : group EH.t;  (* each distinct recorded entry, interned once *)
  mutable next_group : int;
  ind_index : (string, group IH.t) Hashtbl.t;
      (* individual name -> groups whose entry mentions it, by id *)
  atom_index : (string, group IH.t) Hashtbl.t;
      (* user-level atomic concept -> groups whose entry mentions it *)
  acc : cost_acc;  (* session totals: they survive eviction *)
  mutable tableau_calls : int;
      (* evaluations attempted on this oracle, tripped ones included;
         imported history is not counted *)
}

let post index sym g =
  match Hashtbl.find_opt index sym with
  | Some gs -> IH.replace gs g.g_id g
  | None ->
      let gs = IH.create 4 in
      IH.replace gs g.g_id g;
      Hashtbl.replace index sym gs

let unpost index sym g =
  match Hashtbl.find_opt index sym with
  | None -> ()
  | Some gs ->
      IH.remove gs g.g_id;
      if IH.length gs = 0 then Hashtbl.remove index sym

(* A group without keys leaves the intern table and every posting. *)
let drop_group t g =
  EH.remove t.groups g.g_entry;
  List.iter (fun s -> unpost t.ind_index s g) g.g_entry.individuals;
  List.iter (fun s -> unpost t.atom_index s g) g.g_entry.concepts

(* The one way a key leaves its group: a capacity eviction, an explicit
   eviction and an import over a resident key all come through here, so
   the indexes hold exactly the resident keys' groups. *)
let detach t k r =
  match r.group with
  | None -> ()
  | Some g ->
      KH.remove g.g_keys k;
      if KH.length g.g_keys = 0 then drop_group t g

let of_config (config : config) kb =
  let classical_kb = Transform.kb kb in
  let primary =
    Reasoner.create ~max_nodes:config.max_nodes
      ~max_branches:config.max_branches classical_kb
  in
  let t =
    { kb;
      classical_kb;
      config;
      primary;
      horn =
        Horn_backend.create config.backend ~max_nodes:config.max_nodes
          classical_kb;
      cache = Cache.create ~capacity:config.cache_capacity;
      groups = EH.create 64;
      next_group = 0;
      ind_index = Hashtbl.create 64;
      atom_index = Hashtbl.create 64;
      acc = fresh_acc ();
      tableau_calls = 0 }
  in
  (* When the LRU makes room, the evicted verdict leaves its group too, so
     a group left without verdicts leaves the indexes.  Without this, the
     indexes would grow with every verdict ever computed. *)
  Cache.on_evict t.cache (detach t);
  t

let kb t = t.kb
let classical_kb t = t.classical_kb
let reasoner t = t.primary
let config t = t.config
let tableau_calls t = t.tableau_calls

let query_kind = Backend.query_kind
let query_to_string = Backend.query_to_string

(* Seed a fresh provenance sink with the query's own symbols.  A tableau
   run that closes before any rule fires on a query individual would
   otherwise record nothing for it, yet the verdict plainly depends on the
   query: the seed makes the dependency explicit so selective invalidation
   ([apply]) is sound even for verdicts decided "for free". *)
let seed_prov p q =
  let concept c =
    List.iter (Tableau.prov_add_ind p) (Concept.individual_names c);
    List.iter (Tableau.prov_add_atom p) (Concept.atom_names c)
  in
  match q with
  | Consistent -> ()
  | Concept_sat c -> concept c
  | Instance (a, c) | Not_instance (a, c) ->
      Tableau.prov_add_ind p a;
      concept c
  | Role_pos (a, _, b) | Role_neg (a, _, b) ->
      Tableau.prov_add_ind p a;
      Tableau.prov_add_ind p b

(* Route one query to the cheapest complete decision procedure: the
   completion engine whenever it is present (K̄ is in its fragment) and
   claims the query's shape ([t.horn] itself, so routing allocates
   nothing); the tableau is the general fallback ([None]). *)
let route t q =
  match t.horn with
  | Some h as horn when Horn_backend.can_answer h q -> horn
  | _ -> None

let eval_routed t horn ~prov q =
  match horn with
  | Some h -> Horn_backend.eval ~prov h q
  | None -> Backend_tableau.eval ~prov t.primary q

(* [eval] with provenance and cost capture (both always on — the
   dependency index needs every verdict's provenance, and the cost
   records feed the slow-query log which is independent of Obs arming)
   plus observability: when sinks are armed, each verdict additionally
   gets a span timed into the eval-latency histogram. *)
let eval_obs t q =
  let horn = route t q in
  let backend = if Option.is_some horn then "horn" else "tableau" in
  let cells =
    match horn with
    | Some h -> Completion.stats h
    | None -> Reasoner.stats t.primary
  in
  let prov = Tableau.fresh_prov () in
  seed_prov prov q;
  let entry () =
    { individuals = Tableau.prov_individuals prov;
      concepts = Tableau.prov_concepts prov }
  in
  let s0 = Tableau.copy_stats cells in
  let t0 = Unix.gettimeofday () in
  let finish v =
    let wall_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
    ignore (v : bool);
    { c_query = query_to_string q;
      c_kind = query_kind q;
      c_backend = backend;
      c_trace = Obs.trace_id ();
      c_wall_ns = wall_ns;
      c_work = Tableau.diff_stats s0 cells;
      c_hits = 0 }
  in
  if not !Obs.on then
    let v = eval_routed t horn ~prov q in
    (v, entry (), finish v)
  else begin
    let sp = Obs.enter ~cat:"oracle" "oracle.eval" in
    Obs.set_attr sp "query" (query_kind q);
    Obs.set_attr sp "backend" backend;
    let tid = Obs.trace_id () in
    if tid <> "" then Obs.set_attr sp "trace_id" tid;
    match eval_routed t horn ~prov q with
    | v ->
        let entry = entry () in
        Obs.set_attr sp "verdict" (string_of_bool v);
        Obs.set_attr sp "individuals" (String.concat " " entry.individuals);
        Obs.exit_timed sp h_eval;
        (v, entry, finish v)
    | exception e ->
        Obs.set_attr sp "exn" (Printexc.to_string e);
        Obs.exit_timed sp h_eval;
        raise e
  end

(* Join [k] to the group of an equal entry, or intern a new group and post
   it under every symbol it mentions. *)
let join t k (entry : prov_entry) =
  let g =
    match EH.find_opt t.groups entry with
    | Some g -> g
    | None ->
        let g =
          { g_id = t.next_group; g_entry = entry; g_keys = KH.create 4 }
        in
        t.next_group <- t.next_group + 1;
        EH.replace t.groups entry g;
        List.iter (fun s -> post t.ind_index s g) entry.individuals;
        List.iter (fun s -> post t.atom_index s g) entry.concepts;
        g
  in
  KH.replace g.g_keys k ();
  g

(* Make [k] resident with its verdict, provenance and cost record.  A
   disabled cache (capacity 0) stores, interns and posts nothing: no
   verdict can be retained, so there is nothing to invalidate, and the
   groups would grow without bound. *)
let store t k verdict entry cost =
  if t.config.cache_capacity > 0 then
    Cache.add t.cache k
      { verdict; group = Option.map (join t k) entry; cost }

let entry_of r = Option.map (fun g -> g.g_entry) r.group

(* One slow verdict as a JSONL record: the cost record, the provenance
   symbols and the cache's disposition of the verdict. *)
let slow_json t (c : cost) (p : prov_entry) =
  let w = c.c_work in
  Json_lite.(
    let strs l = Arr (List.map (fun s -> Str s) l) in
    to_string
      (Obj
         [ ("ts_unix", Num (Unix.time ()));
           ("trace_id", Str c.c_trace);
           ("query", Str c.c_query);
           ("kind", Str c.c_kind);
           ("backend", Str c.c_backend);
           ("wall_ms", Num (c.c_wall_ns /. 1e6));
           ("runs", int w.runs);
           ("nodes", int w.nodes_created);
           ("merges", int w.merges);
           ("branches", int w.branches_explored);
           ("backtracks", int w.backtracks);
           ("clashes", int w.clashes);
           ("blocking", int w.blocking_events);
           ( "rules",
             Obj (List.map (fun (n, v) -> (n, int v)) (Tableau.rule_counts w)) );
           ("individuals", strs p.individuals);
           ("concepts", strs p.concepts);
           ("cache_stored", Bool (t.config.cache_capacity > 0));
           ("cache_size", int (Cache.length t.cache)) ]))

(* Account one computed verdict: session totals (always), slow-query log
   (when armed and over threshold). *)
let record_cost t (c : cost) (p : prov_entry) =
  let a = t.acc in
  a.a_verdicts <- a.a_verdicts + 1;
  Hashtbl.replace a.a_backends c.c_backend
    (1 + Option.value ~default:0 (Hashtbl.find_opt a.a_backends c.c_backend));
  Obs.incr (if String.equal c.c_backend "horn" then c_route_horn else c_route_tableau);
  a.a_wall <- a.a_wall +. c.c_wall_ns;
  Tableau.add_stats ~into:a.a_work c.c_work;
  if c.c_wall_ns /. 1e6 >= Obs.slow_threshold_ms () then begin
    a.a_slow <- a.a_slow + 1;
    Obs.incr c_slow;
    Obs.slow_log_write (slow_json t c p)
  end

let check t q =
  let k = key_of q in
  let v =
    match Cache.find t.cache k with
    | Some r ->
        t.acc.a_served <- t.acc.a_served + 1;
        Option.iter (fun c -> c.c_hits <- c.c_hits + 1) r.cost;
        r.verdict
    | None ->
        t.tableau_calls <- t.tableau_calls + 1;
        Obs.incr c_tableau_calls;
        let v, p, c = eval_obs t q in
        record_cost t c p;
        store t k v (Some p) (Some c);
        v
  in
  Obs.set_gauge g_cache_size (float_of_int (Cache.length t.cache));
  v

let check_all t qs =
  Obs.with_span ~cat:"oracle" "oracle.check_all" (fun () ->
      List.map (check t) qs)

let peek t q = Cache.peek t.cache (key_of q)
let provenance t q = Option.bind (peek t q) entry_of
let cost t q = Option.bind (peek t q) (fun r -> r.cost)

let provenances t =
  List.filter_map (fun (_, r) -> entry_of r) (Cache.entries t.cache)

let costs t =
  List.filter_map (fun (_, r) -> r.cost) (Cache.entries t.cache)
  |> List.sort (fun a b -> Float.compare b.c_wall_ns a.c_wall_ns)

let cost_totals t =
  let a = t.acc in
  { verdicts = a.a_verdicts;
    cache_served = a.a_served;
    slow = a.a_slow;
    wall_ns = a.a_wall;
    work = Tableau.copy_stats a.a_work;
    backends =
      Hashtbl.fold (fun b n acc -> (b, n) :: acc) a.a_backends []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b) }

(* ------------------------------------------------------------------ *)
(* Snapshot export / import (PR 6).  The persistence layer must not see
   the cache's internal key type, so the export vocabulary is the public
   [query] (keys canonicalize idempotently: [key_of (query_of_key k) = k],
   because [Concept.canon] is a retraction), paired with the rest of the
   resident record: the verdict, its provenance entry and cost record. *)

type export_entry = {
  x_query : query;
  x_verdict : bool;
  x_prov : prov_entry option;
  x_cost : cost option;
}

let query_of_key = function
  | Key.K_consistent -> Consistent
  | Key.K_sat k -> Concept_sat (Qkey.concept k)
  | Key.K_instance (a, k) -> Instance (a, Qkey.concept k)
  | Key.K_not_instance (a, k) -> Not_instance (a, Qkey.concept k)
  | Key.K_role_pos (a, r, b) -> Role_pos (a, r, b)
  | Key.K_role_neg (a, r, b) -> Role_neg (a, r, b)

let export_entries t =
  List.map
    (fun (k, r) ->
      { x_query = query_of_key k;
        x_verdict = r.verdict;
        x_prov = entry_of r;
        x_cost = r.cost })
    (Cache.entries t.cache)

(* An import overflowing the capacity evicts older imports through the
   regular on_evict hook; one over a resident key first leaves its old
   group. *)
let import_entry t e =
  let k = key_of e.x_query in
  Option.iter (detach t k) (Cache.peek t.cache k);
  store t k e.x_verdict e.x_prov e.x_cost

let import_entries t es =
  List.iter (import_entry t) es;
  Cache.length t.cache

let import_totals t (s : cost_totals) =
  let a = t.acc in
  a.a_verdicts <- a.a_verdicts + s.verdicts;
  a.a_served <- a.a_served + s.cache_served;
  a.a_slow <- a.a_slow + s.slow;
  a.a_wall <- a.a_wall +. s.wall_ns;
  Tableau.add_stats ~into:a.a_work s.work;
  List.iter
    (fun (b, n) ->
      Hashtbl.replace a.a_backends b
        (n + Option.value ~default:0 (Hashtbl.find_opt a.a_backends b)))
    s.backends

let restore_cache_stats t (s : Verdict_cache.stats) =
  Cache.restore_stats t.cache ~hits:s.Verdict_cache.hits
    ~misses:s.Verdict_cache.misses ~evictions:s.Verdict_cache.evictions

let cache_stats t = Cache.stats t.cache

(* ------------------------------------------------------------------ *)
(* Incremental update *)

type apply_stats = {
  evicted : int;
  retained : int;
  flushed : bool;
  consistency_flipped : bool;
  recheck_calls : int;
}

let pp_apply_stats ppf s =
  Format.fprintf ppf "%d evicted / %d retained%s%s (%d recheck calls)"
    s.evicted s.retained
    (if s.flushed then ", full flush" else "")
    (if s.consistency_flipped then ", consistency flipped" else "")
    s.recheck_calls

(* Drop everything derived: verdicts, provenance, groups, both indexes.
   Keeps the cache's hit/miss counters (a flush is not a capacity
   eviction). *)
let flush_all t =
  Cache.purge t.cache;
  EH.reset t.groups;
  Hashtbl.reset t.ind_index;
  Hashtbl.reset t.atom_index

let evict_key t k = Option.iter (detach t k) (Cache.remove t.cache k)

(* What a delta edits: K, K̄, the reasoner's prepared state (with its
   cached consistency bit) and the completion engine.  Each is an
   immutable value or an object the delta replaces without touching, so
   keeping the old ones is enough to undo an update. *)
type saved = {
  s_kb : Kb4.t;
  s_classical_kb : Axiom.kb;
  s_reasoner : Reasoner.state;
  s_horn : Completion.t option;
}

let atomically t f =
  let s =
    { s_kb = t.kb;
      s_classical_kb = t.classical_kb;
      s_reasoner = Reasoner.state t.primary;
      s_horn = t.horn }
  in
  match f () with
  | v -> v
  | exception e ->
      (* [apply] edits K first, and [Delta.apply_kb4] always allocates:
         a K still physically the saved one means nothing was edited *)
      if t.kb != s.s_kb then begin
        t.kb <- s.s_kb;
        t.classical_kb <- s.s_classical_kb;
        Reasoner.restore t.primary s.s_reasoner;
        t.horn <- s.s_horn;
        (* the probes paid after the first edit answered the edited KB *)
        flush_all t
      end;
      raise e

(* Drop every group posted under [sym] whole: all of its keys leave the
   cache, and the last one to go unposts the group. *)
let evict_symbol t index sym =
  match Hashtbl.find_opt index sym with
  | None -> ()
  | Some gs ->
      (* snapshot first: detaching keys mutates [gs] and the key sets *)
      IH.fold (fun _ g ks -> KH.fold (fun k () ks -> k :: ks) g.g_keys ks) gs []
      |> List.iter (evict_key t)

(* Connected components of the told classical ABox graph (role and
   data assertions, Same/Different, nominal references inside asserted
   concepts), restricted to the components of [seeds].  A verdict whose
   provenance avoids every individual of the delta's components cannot
   change: the tableau for it never visits the delta's part of the ABox
   (disjoint forests), so its run — and verdict — is literally identical. *)
let component_closure abox seeds =
  let parent : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | None ->
        Hashtbl.replace parent x x;
        x
    | Some p when String.equal p x -> x
    | Some p ->
        let r = find p in
        Hashtbl.replace parent x r;
        r
  in
  let union a b =
    let ra = find a and rb = find b in
    if not (String.equal ra rb) then Hashtbl.replace parent ra rb
  in
  let link_all = function
    | [] -> ()
    | x :: rest -> List.iter (union x) rest
  in
  List.iter
    (fun (ax : Axiom.abox_axiom) ->
      match ax with
      | Axiom.Instance_of (a, c) -> link_all (a :: Concept.individual_names c)
      | Axiom.Role_assertion (a, _, b) -> union a b
      | Axiom.Data_assertion (a, _, _) -> ignore (find a : string)
      | Axiom.Same (a, b) | Axiom.Different (a, b) -> union a b)
    abox;
  List.iter (fun s -> ignore (find s : string)) seeds;
  (* snapshot keys first: [find] path-compresses, and mutating a table
     while folding over it is undefined *)
  let names = Hashtbl.fold (fun x _ acc -> x :: acc) parent [] in
  let roots =
    List.sort_uniq String.compare (List.map find seeds)
  in
  List.filter (fun x -> List.mem (find x) roots) names
  |> List.sort_uniq String.compare

(* Do any classical TBox concepts mention a nominal?  If so, ABox
   individuals can leak into concept satisfiability (a {o} in the TBox
   pins o's told assertions into every model), and the disjoint-forest
   argument behind [component_closure] breaks — ABox deltas then force a
   full flush. *)
let tbox_has_nominal tbox =
  let concept c =
    List.exists
      (function Concept.One_of _ -> true | _ -> false)
      (Concept.subconcepts c)
  in
  List.exists
    (function
      | Axiom.Concept_sub (c, d) -> concept c || concept d
      | Axiom.Role_sub _ | Axiom.Data_role_sub _ | Axiom.Transitive _ -> false)
    tbox

(* Registry mirrors for the update path, so the uniform `--stats` footer
   reflects delta work like it reflects query work. *)
let c_deltas = Obs.counter "oracle.delta.applied"
let c_delta_evicted = Obs.counter "oracle.delta.evicted"
let c_delta_flushes = Obs.counter "oracle.delta.flushes"
let c_delta_recheck = Obs.counter "oracle.delta.recheck_calls"

let apply t (d : Delta.t) =
  if Delta.is_empty d then
    { evicted = 0;
      retained = Cache.length t.cache;
      flushed = false;
      consistency_flipped = false;
      recheck_calls = 0 }
  else
    Obs.with_span ~cat:"oracle" "oracle.apply" @@ fun () ->
    atomically t @@ fun () ->
    let calls0 = t.tableau_calls in
    (* the transition guard below needs the pre-delta status — read it
       before mutating (pays one tableau call if not already cached) *)
    let pre = check t Consistent in
    let ctbox = Transform.tbox_delta d.add_tbox in
    let cadd = Transform.abox_delta d.add_abox in
    let cretract = Transform.abox_delta d.retract_abox in
    (* TBox additions: an axiom the pre-delta prep will absorb
       positively (atomic LHS) only strengthens the unfolding of that one
       atom — evict verdicts whose provenance mentions the (demangled)
       atom.  Anything else (GCIs, negatively absorbed axioms, role
       axioms, transitivity, a positive rule on a name absorbed
       negatively) changes global saturation and forces a full flush. *)
    let tbox_flush, evict_atoms =
      List.fold_left
        (fun (flush, atoms) ax ->
          match Reasoner.absorbable_lhs t.primary ax with
          | None -> (true, atoms)
          | Some a -> (
              match Mangle.atom_origin a with
              | Mangle.Pos x | Mangle.Neg x | Mangle.Plain x ->
                  (flush, x :: atoms)))
        (false, []) ctbox
    in
    let abox_touched = Delta.touches_abox d in
    (* Nominals break the disjoint-forest locality argument in both
       directions.  An added TBox axiom whose body mentions a nominal —
       even an absorbable one — names an ABox individual, so it can merge
       previously disjoint components without touching a single ABox
       assertion (e.g. [A ⊑ {o} ⊓ C] pulls every A-instance onto [o]):
       such a delta always forces a full flush, independent of
       [abox_touched].  Conversely, a nominal-free TBox delta leaves ABox
       edits unsafe only when the {e pre-existing} TBox pins individuals
       via nominals. *)
    let nominal_guard =
      tbox_has_nominal ctbox
      || (abox_touched && tbox_has_nominal t.classical_kb.Axiom.tbox)
    in
    let flush = tbox_flush || nominal_guard in
    (* component closure over the PRE-delta ABox plus the added
       assertions: retracting an edge can only shrink a component, so the
       pre-delta graph over-approximates; added edges can bridge two old
       components, so they must be in the graph too *)
    let touched_inds =
      if flush || not abox_touched then []
      else
        component_closure
          (t.classical_kb.Axiom.abox @ cadd)
          (Delta.individuals d)
    in
    (* structural update: K in place (the first edit), K̄ through the
       reasoner's incremental prep (told indexes, absorption, hierarchy
       refresh); from here on a failure rolls all of it back *)
    t.kb <- Delta.apply_kb4 t.kb d;
    Reasoner.apply_delta t.primary ~add_abox:cadd ~retract_abox:cretract
      ~add_tbox:ctbox;
    t.classical_kb <- Reasoner.kb t.primary;
    (* rebuild the completion engine: fragment eligibility can change
       with the KB (a delta can push K̄ out of — or back into — the Horn
       fragment) *)
    t.horn <-
      Horn_backend.create t.config.backend ~max_nodes:t.config.max_nodes
        t.classical_kb;
    let size0 = Cache.length t.cache in
    if flush then flush_all t
    else begin
      (* global consistency always depends on the delta: a new component
         can be inconsistent all by itself *)
      evict_key t Key.K_consistent;
      List.iter (evict_symbol t t.ind_index) touched_inds;
      List.iter (evict_symbol t t.atom_index) evict_atoms
    end;
    let evicted = size0 - Cache.length t.cache in
    (* consistency-transition guard: if the status flipped, every retained
       verdict is suspect (inconsistency is global — it decides all
       entailments at once), so flush what survived.  Inconsistent on
       both sides retains everything: those verdicts are already the
       trivially-determined ones. *)
    let post = check t Consistent in
    let flipped = post <> pre in
    let evicted =
      if flipped && not flush then begin
        (* the re-stored bit keeps its provenance; its cost record goes *)
        let consistency =
          Option.bind (Cache.peek t.cache Key.K_consistent) entry_of
        in
        let n = Cache.length t.cache in
        flush_all t;
        store t Key.K_consistent post consistency None;
        evicted + n - Cache.length t.cache
      end
      else evicted
    in
    let st =
      { evicted;
        retained = Cache.length t.cache;
        flushed = flush || flipped;
        consistency_flipped = flipped;
        recheck_calls = t.tableau_calls - calls0 }
    in
    Obs.incr c_deltas;
    Obs.add c_delta_evicted st.evicted;
    if st.flushed then Obs.incr c_delta_flushes;
    Obs.add c_delta_recheck st.recheck_calls;
    st

