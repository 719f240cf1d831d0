(* Telemetry: a per-op request registry.

   Where [Obs] is the process-global metrics spine armed by DL4_TRACE,
   this module is a value: a registry instance the serve loop owns and
   feeds one record per request, keyed by protocol op.  Per op it
   tracks request/error counts, a log2 latency histogram (same bucket
   geometry as [Obs] so [Obs.quantile_of_buckets] reads it), route
   counters keyed by backend, and cache/tableau work counters.

   A registry renders two ways: a JSON value (printed by Json_lite) for
   the NDJSON [metrics] serve op, and a Prometheus-style text exposition
   for [--metrics-out] scraping. *)

let buckets = 64

type op_stats = {
  mutable s_requests : int;
  mutable s_errors : int;
  mutable s_sum_ns : float;
  s_buckets : int array; (* bucket i counts wall times in [2^i, 2^(i+1)) ns *)
  s_routes : (string, int) Hashtbl.t; (* backend -> verdicts computed *)
  s_strategies : (string, int) Hashtbl.t; (* planner strategy -> picks *)
  mutable s_cache_served : int;
  mutable s_tableau_calls : int;
}

(* KB-health snapshot, set by whoever owns the KB (the serve loop, on
   its metrics interval): static size gauges always, truth-value census
   gauges once an audit has run ([kb_truth_counts] empty until then).
   Truth values travel as their short labels ("t"/"f"/"B"/"N") so this
   module stays below lib/four in the stack. *)
type kb_health = {
  kb_individuals : int;
  kb_tbox_axioms : int;
  kb_abox_axioms : int;
  kb_cached_verdicts : int;
  kb_truth_counts : (string * int) list;
  kb_inconsistency_ratio : float;
}

type t = {
  started_unix : float;
  ops : (string, op_stats) Hashtbl.t;
  mutable kb : kb_health option;
  mu : Mutex.t;
}

let create () =
  { started_unix = Unix.gettimeofday (); ops = Hashtbl.create 16;
    kb = None; mu = Mutex.create () }

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let fresh_op () =
  { s_requests = 0; s_errors = 0; s_sum_ns = 0.0;
    s_buckets = Array.make buckets 0; s_routes = Hashtbl.create 4;
    s_strategies = Hashtbl.create 4; s_cache_served = 0; s_tableau_calls = 0 }

let op_stats t op =
  match Hashtbl.find_opt t.ops op with
  | Some s -> s
  | None ->
      let s = fresh_op () in
      Hashtbl.replace t.ops op s;
      s

let tbl_bump tbl key n =
  if n > 0 then
    Hashtbl.replace tbl key
      (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let add_route s backend n = tbl_bump s.s_routes backend n
let add_strategy s strategy n = tbl_bump s.s_strategies strategy n

let record t ~op ~ok ~wall_ns ?(routes = []) ?(strategies = [])
    ?(cache_served = 0) ?(tableau_calls = 0) () =
  (* plain lock/unlock, no Fun.protect: the body is pure arithmetic
     and Hashtbl updates (no exceptions), and this runs once per serve
     request inside the S11 budget *)
  Mutex.lock t.mu;
  let s = op_stats t op in
  s.s_requests <- s.s_requests + 1;
  if not ok then s.s_errors <- s.s_errors + 1;
  s.s_sum_ns <- s.s_sum_ns +. wall_ns;
  let b = Obs.bucket_of_ns wall_ns in
  s.s_buckets.(b) <- s.s_buckets.(b) + 1;
  List.iter (fun (backend, n) -> add_route s backend n) routes;
  List.iter (fun (strategy, n) -> add_strategy s strategy n) strategies;
  s.s_cache_served <- s.s_cache_served + cache_served;
  s.s_tableau_calls <- s.s_tableau_calls + tableau_calls;
  Mutex.unlock t.mu

let set_kb_health t h = with_lock t (fun () -> t.kb <- Some h)
let kb_health t = with_lock t (fun () -> t.kb)

(* ------------------------------------------------------------------ *)
(* Read side: immutable views *)

type op_view = {
  v_op : string;
  v_requests : int;
  v_errors : int;
  v_sum_ns : float;
  v_buckets : (int * int) list; (* non-empty (bucket, count) pairs *)
  v_routes : (string * int) list; (* sorted by backend *)
  v_strategies : (string * int) list; (* sorted by strategy *)
  v_cache_served : int;
  v_tableau_calls : int;
}

let view t =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun op s acc ->
          let bs =
            Array.to_list s.s_buckets
            |> List.mapi (fun i c -> (i, c))
            |> List.filter (fun (_, c) -> c > 0)
          in
          let routes =
            Hashtbl.fold (fun b n acc -> (b, n) :: acc) s.s_routes []
            |> List.sort compare
          in
          let strategies =
            Hashtbl.fold (fun st n acc -> (st, n) :: acc) s.s_strategies []
            |> List.sort compare
          in
          { v_op = op; v_requests = s.s_requests; v_errors = s.s_errors;
            v_sum_ns = s.s_sum_ns; v_buckets = bs; v_routes = routes;
            v_strategies = strategies; v_cache_served = s.s_cache_served;
            v_tableau_calls = s.s_tableau_calls }
          :: acc)
        t.ops []
      |> List.sort (fun a b -> compare a.v_op b.v_op))

let uptime_s t = Unix.gettimeofday () -. t.started_unix
let started_unix t = t.started_unix

let requests t =
  with_lock t (fun () ->
      Hashtbl.fold (fun _ s acc -> acc + s.s_requests) t.ops 0)

let errors t =
  with_lock t (fun () ->
      Hashtbl.fold (fun _ s acc -> acc + s.s_errors) t.ops 0)

(* ------------------------------------------------------------------ *)
(* JSON: one object for the NDJSON [metrics] serve op *)

let schema = "dl4-metrics/1"

let json t =
  Json_lite.(
    let counts l = Obj (List.map (fun (k, n) -> (k, int n)) l) in
    let op v =
      Obj
        ([ ("op", Str v.v_op);
           ("requests", int v.v_requests);
           ("errors", int v.v_errors);
           ("wall_ns_sum", Num v.v_sum_ns) ]
        @ List.map
            (fun (label, q) -> (label, Num (Obs.quantile_of_buckets v.v_buckets q)))
            [ ("p50_ns", 0.5); ("p90_ns", 0.9); ("p99_ns", 0.99) ]
        @ [ ( "buckets",
              Arr (List.map (fun (idx, c) -> Arr [ int idx; int c ]) v.v_buckets)
            );
            ("routes", counts v.v_routes);
            ("strategies", counts v.v_strategies);
            ("cache_served", int v.v_cache_served);
            ("tableau_calls", int v.v_tableau_calls) ])
    in
    let kb =
      match kb_health t with
      | None -> []
      | Some h ->
          [ ( "kb",
              Obj
                ([ ("individuals", int h.kb_individuals);
                   ("tbox_axioms", int h.kb_tbox_axioms);
                   ("abox_axioms", int h.kb_abox_axioms);
                   ("cached_verdicts", int h.kb_cached_verdicts) ]
                @
                if h.kb_truth_counts = [] then []
                else
                  [ ("truth", counts h.kb_truth_counts);
                    ("inconsistency_ratio", Num h.kb_inconsistency_ratio) ]) ) ]
    in
    Obj
      ([ ("schema", Str schema);
         ("uptime_s", Num (uptime_s t));
         ("requests", int (requests t));
         ("errors", int (errors t));
         ("ops", Arr (List.map op (view t))) ]
      @ kb))

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition.

   Label values escape backslash, double quote and newline per the
   exposition format.
   Histogram buckets are emitted cumulatively with [le] in seconds
   (our buckets are log2 in ns: bucket i covers [2^i, 2^(i+1)) ns, so
   its upper bound is 2^(i+1) ns), closing with the mandatory [+Inf]
   bucket, [_sum] and [_count]. *)

let label_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prom_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let prometheus t =
  let b = Buffer.create 4096 in
  let header name typ help =
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ)
  in
  let sample name labels value =
    let labels =
      match labels with
      | [] -> ""
      | l ->
          "{"
          ^ String.concat ","
              (List.map
                 (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (label_escape v))
                 l)
          ^ "}"
    in
    Buffer.add_string b (Printf.sprintf "%s%s %s\n" name labels value)
  in
  let views = view t in
  header "dl4_uptime_seconds" "gauge"
    "Seconds since this telemetry registry was created.";
  sample "dl4_uptime_seconds" [] (prom_float (uptime_s t));
  (match kb_health t with
  | None -> ()
  | Some h ->
      header "dl4_kb_individuals" "gauge"
        "Named individuals in the served knowledge base.";
      sample "dl4_kb_individuals" [] (string_of_int h.kb_individuals);
      header "dl4_kb_axioms" "gauge"
        "Axioms in the served knowledge base, by box.";
      sample "dl4_kb_axioms" [ ("box", "tbox") ]
        (string_of_int h.kb_tbox_axioms);
      sample "dl4_kb_axioms" [ ("box", "abox") ]
        (string_of_int h.kb_abox_axioms);
      header "dl4_kb_cached_verdicts" "gauge"
        "Verdicts currently resident in the oracle cache.";
      sample "dl4_kb_cached_verdicts" []
        (string_of_int h.kb_cached_verdicts);
      if h.kb_truth_counts <> [] then begin
        header "dl4_kb_truth_total" "gauge"
          "Audited facts by exact truth value (last census).";
        List.iter
          (fun (label, n) ->
            sample "dl4_kb_truth_total" [ ("value", label) ]
              (string_of_int n))
          h.kb_truth_counts;
        header "dl4_kb_inconsistency_ratio" "gauge"
          "Contradictory fraction of decided facts (last census).";
        sample "dl4_kb_inconsistency_ratio" []
          (prom_float h.kb_inconsistency_ratio)
      end);
  header "dl4_requests_total" "counter" "Requests handled, by op.";
  List.iter
    (fun v ->
      sample "dl4_requests_total" [ ("op", v.v_op) ]
        (string_of_int v.v_requests))
    views;
  header "dl4_errors_total" "counter" "Requests answered with an error, by op.";
  List.iter
    (fun v ->
      sample "dl4_errors_total" [ ("op", v.v_op) ] (string_of_int v.v_errors))
    views;
  header "dl4_route_verdicts_total" "counter"
    "Verdicts computed per reasoning backend, by op and backend.";
  List.iter
    (fun v ->
      List.iter
        (fun (backend, n) ->
          sample "dl4_route_verdicts_total"
            [ ("op", v.v_op); ("backend", backend) ]
            (string_of_int n))
        v.v_routes)
    views;
  header "dl4_planner_strategy_total" "counter"
    "Query-planner join strategies executed, by op and strategy.";
  List.iter
    (fun v ->
      List.iter
        (fun (strategy, n) ->
          sample "dl4_planner_strategy_total"
            [ ("op", v.v_op); ("strategy", strategy) ]
            (string_of_int n))
        v.v_strategies)
    views;
  header "dl4_cache_served_total" "counter"
    "Verdicts served from the cache, by op.";
  List.iter
    (fun v ->
      sample "dl4_cache_served_total" [ ("op", v.v_op) ]
        (string_of_int v.v_cache_served))
    views;
  header "dl4_tableau_calls_total" "counter" "Tableau invocations, by op.";
  List.iter
    (fun v ->
      sample "dl4_tableau_calls_total" [ ("op", v.v_op) ]
        (string_of_int v.v_tableau_calls))
    views;
  header "dl4_request_duration_seconds" "histogram"
    "Request wall time, by op.";
  List.iter
    (fun v ->
      let cum = ref 0 in
      List.iter
        (fun (idx, c) ->
          cum := !cum + c;
          let le_s = ldexp 1.0 (idx + 1) /. 1e9 in
          sample "dl4_request_duration_seconds_bucket"
            [ ("op", v.v_op); ("le", prom_float le_s) ]
            (string_of_int !cum))
        v.v_buckets;
      sample "dl4_request_duration_seconds_bucket"
        [ ("op", v.v_op); ("le", "+Inf") ]
        (string_of_int !cum);
      sample "dl4_request_duration_seconds_sum" [ ("op", v.v_op) ]
        (prom_float (v.v_sum_ns /. 1e9));
      sample "dl4_request_duration_seconds_count" [ ("op", v.v_op) ]
        (string_of_int v.v_requests))
    views;
  Buffer.contents b

let write_prometheus t path = Sink.replace path (prometheus t)
