(** Process-wide observability: metrics registry, hierarchical spans,
    export sinks (human footer, flat metrics JSON, Chrome trace_event).
    The metrics dump is built as a {!Json_lite.t} and printed by
    {!Json_lite}; the Chrome trace prints its [ts]/[dur] fixed-point by
    hand and escapes its strings with {!Json_lite.escape}.

    All instrumentation is gated on one [bool ref]; when disabled every
    site costs a load and a branch — no allocation, no atomics. *)

(** {1 Global switch} *)

val on : bool ref
(** The master gate.  Instrumentation helpers read it inline; callers
    should flip it via {!set_enabled}. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val reset : unit -> unit
(** Zero every registered metric and drop all span records.  Metrics
    stay registered. *)

(** {1 Trace IDs}

    One opaque hex ID per unit of work (a CLI invocation, a serve
    request).  The current ID is process-global — the CLI and the serve
    loop each handle one request at a time.  Independent of {!on}, like
    the slow log: cost accounting upstream is unconditional. *)

val new_trace_id : unit -> string
(** Mint a fresh 16-hex-char ID (unique per process lifetime, salted
    with pid and wall clock across processes).  Does not install it. *)

val set_trace_id : string -> unit
(** Install [id] as the current trace ID. *)

val clear_trace_id : unit -> unit
(** Reset the current trace ID to the empty string. *)

val trace_id : unit -> string
(** The current trace ID; [""] when none is installed. *)

val with_trace_id : string -> (unit -> 'a) -> 'a
(** Run the thunk with [id] installed, restoring the previous ID
    (even on exception). *)

(** {1 Metrics registry}

    Metrics are registered by name on first use and live for the whole
    process; re-registering a name returns the existing metric (and
    raises [Invalid_argument] on a kind mismatch). *)

type counter
type gauge
type histogram

val counter : string -> counter
val gauge : string -> gauge
val histogram : string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val count : counter -> int

val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val observe_ns : histogram -> float -> unit
(** Record a duration in nanoseconds into log2 buckets. *)

val histogram_count : histogram -> int
val histogram_sum_ns : histogram -> float

val histogram_bucket_counts : histogram -> (int * int) list
(** Non-empty buckets as [(bucket_index, count)]: bucket 0 counts
    durations in [\[0, 2)] ns, bucket [i >= 1] counts [\[2^i, 2^(i+1))]. *)

val bucket_of_ns : float -> int
(** The log2 bucket index a duration in ns falls in, under the same
    geometry as {!histogram_bucket_counts}.  Exposed so sibling
    registries ({!Telemetry}) share one bucket scheme. *)

val quantile_of_buckets : (int * int) list -> float -> float
(** [quantile_of_buckets buckets q] estimates the [q]-quantile (with
    [q] clamped to [\[0, 1\]]) of the durations summarized by log2
    [(bucket_index, count)] pairs, by linear interpolation inside the
    bucket the rank lands in.  [nan] when the total count is zero.

    Error bounds: when the rank falls on a cumulative bucket boundary
    the estimate is {e exact} (the boundary value [2^i]); otherwise the
    estimate and the true quantile lie in the same bucket [\[lo, 2*lo)],
    so the estimate is within a factor of 2 of the truth (absolute
    error below the bucket width).  Also the reader half of [dl4
    profile]: it reconstructs these pairs from the [".buckets"] keys of
    {!metrics_json}. *)

val quantile_ns : histogram -> float -> float
(** {!quantile_of_buckets} over a live histogram's buckets. *)

val counters : unit -> (string * int) list
(** All registered counters with current values, sorted by name. *)

val gauges : unit -> (string * float) list
(** All registered gauges with current values, sorted by name. *)

val histograms : unit -> (string * int * float) list
(** All registered histograms as [(name, count, sum_ns)], sorted. *)

(** {1 Spans} *)

type span

type span_record = {
  r_id : int;
  r_parent : int;  (** 0 = root *)
  r_name : string;
  r_cat : string;
  r_start_ns : float;  (** relative to process start *)
  r_dur_ns : float;
  r_attrs : (string * string) list;
}

val none : span
(** The sentinel returned by {!enter} when disabled; all span
    operations on it are no-ops. *)

val live : span -> bool
(** [false] exactly for {!none}; use to skip attr-string construction. *)

val enter : ?cat:string -> string -> span
(** Open a span, nested under the innermost open span (one process-wide
    stack of open spans). *)

val set_attr : span -> string -> string -> unit
val exit_span : span -> unit

val exit_timed : span -> histogram -> unit
(** [exit_span] + record the duration into [histogram]. *)

val with_span : ?cat:string -> string -> (unit -> 'a) -> 'a
(** Run under a span when enabled; call the thunk directly otherwise. *)

val spans : unit -> span_record list
(** All closed spans in completion order. *)

val span_count : unit -> int

(** {1 Sinks} *)

val pp_footer : Format.formatter -> unit -> unit
(** Human summary: non-zero counters, histogram totals, span count. *)

val print_footer : unit -> unit

val metrics_json : unit -> string
(** Flat registry dump as a one-line JSON object: counters and gauges
    by name, each histogram as [name.count], [name.sum_ns] and
    [name.buckets] ([[index, count]] pairs of its non-empty buckets). *)

val write_metrics_json : string -> unit
(** {!metrics_json} and a newline, written to [path]. *)

val trace_json : unit -> string
(** Chrome [trace_event] JSON (complete "X" events, ts/dur in
    microseconds, tid 0, span id/parent in [args]). *)

val write_trace : string -> unit

val trace_env_path : string option
(** Path from [DL4_TRACE] ("1" selects ["dl4.trace.json"]); when set,
    tracing was armed at module init and the trace is written at exit. *)

(** {1 Slow-query log}

    An append-only JSONL sink.  Deliberately independent of {!on}: the
    oracle's cost accounting is unconditional, so slow verdicts are
    caught even when no metrics sink is armed.  Writers print their
    record (one JSON object per line, built as a {!Json_lite.t}) and
    hand it to {!slow_log_write}, which appends and flushes under a
    mutex — or drops it when the log is disarmed.  The CLI arms it with
    [--slow-log FILE --slow-ms N]. *)

val arm_slow_log : ?threshold_ms:float -> string -> unit
(** Arm the log at [path] (appending).  [threshold_ms] defaults to
    100 ms. *)

val disarm_slow_log : unit -> unit
val slow_log_armed : unit -> bool
val slow_log_path : unit -> string option

val slow_threshold_ms : unit -> float
(** The armed threshold; [infinity] when disarmed, so callers can gate
    on [wall_ms >= slow_threshold_ms ()] alone. *)

val slow_log_write : string -> unit
