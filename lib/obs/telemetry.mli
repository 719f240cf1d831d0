(** A per-op request registry: the live metrics plane behind the serve
    daemon.

    Unlike {!Obs} (process-global, armed by [DL4_TRACE]) a [Telemetry.t]
    is a value owned by whoever serves requests.  One {!record} call per
    request accumulates, per op: request/error counts, a log2 latency
    histogram in {!Obs.bucket_of_ns} geometry, route counters keyed by
    backend, and cache/tableau work counters.  A registry renders as a
    JSON value (the NDJSON [metrics] serve op) or as a Prometheus text
    exposition ([--metrics-out]). *)

type t

val create : unit -> t
(** A fresh registry; its creation instant anchors {!uptime_s}. *)

val record :
  t ->
  op:string ->
  ok:bool ->
  wall_ns:float ->
  ?routes:(string * int) list ->
  ?strategies:(string * int) list ->
  ?cache_served:int ->
  ?tableau_calls:int ->
  unit ->
  unit
(** Account one request under [op].  [routes] counts verdicts computed
    per backend during the request; [strategies] counts query-planner
    join-strategy picks (["nested_loop"] / ["hash_join"]) executed
    during the request; [cache_served] / [tableau_calls] are the
    marginal cache and tableau work.  Thread-safe. *)

(** {1 KB health}

    A point-in-time snapshot of the served knowledge base, refreshed by
    the serve loop on its metrics interval.  Static size gauges are
    always meaningful; the truth-value census gauges carry data only
    once an audit has run ([kb_truth_counts] empty until then).  Truth
    values travel as their short labels ([t]/[f]/[B]/[N]) so this module
    stays independent of the logic layer. *)

type kb_health = {
  kb_individuals : int;
  kb_tbox_axioms : int;
  kb_abox_axioms : int;
  kb_cached_verdicts : int;
  kb_truth_counts : (string * int) list;
  kb_inconsistency_ratio : float;
}

val set_kb_health : t -> kb_health -> unit
(** Replace the snapshot (thread-safe). *)

val kb_health : t -> kb_health option

(** {1 Read side} *)

type op_view = {
  v_op : string;
  v_requests : int;
  v_errors : int;
  v_sum_ns : float;
  v_buckets : (int * int) list;
      (** non-empty [(bucket, count)] pairs, {!Obs.quantile_of_buckets}
          geometry *)
  v_routes : (string * int) list;  (** [(backend, verdicts)], sorted *)
  v_strategies : (string * int) list;
      (** [(strategy, picks)] from the query planner, sorted *)
  v_cache_served : int;
  v_tableau_calls : int;
}

val view : t -> op_view list
(** A consistent snapshot of every op, sorted by op name. *)

val uptime_s : t -> float
val started_unix : t -> float
val requests : t -> int
val errors : t -> int

(** {1 Renderers} *)

val schema : string
(** The [schema] field of {!json}: ["dl4-metrics/1"]. *)

val json : t -> Json_lite.t
(** One JSON object: schema, uptime, totals, per-op stats with
    p50/p90/p99 estimates, buckets, routes — plus a [kb] object when a
    KB-health snapshot is set.  The [metrics] serve op embeds it. *)

val prometheus : t -> string
(** Prometheus text exposition: [dl4_uptime_seconds],
    [dl4_requests_total], [dl4_errors_total],
    [dl4_route_verdicts_total], [dl4_planner_strategy_total],
    [dl4_cache_served_total],
    [dl4_tableau_calls_total] and the [dl4_request_duration_seconds]
    histogram (cumulative [le] buckets in seconds closing with [+Inf],
    [_sum], [_count]).  When a KB-health snapshot is set, also the
    gauges [dl4_kb_individuals], [dl4_kb_axioms{box=...}],
    [dl4_kb_cached_verdicts] and — once a census has run —
    [dl4_kb_truth_total{value=...}] and [dl4_kb_inconsistency_ratio].
    Label values are escaped per the format. *)

val write_prometheus : t -> string -> unit
(** Render {!prometheus} to [path] by {!Sink.replace}: a concurrent
    scrape never reads a torn file, and a failure raises [Sys_error]. *)

val label_escape : string -> string
(** Exposition-format label escaping: backslash, double quote and
    newline become two-character escapes.  Exposed for the validator
    and tests. *)
