(** The [dl4 serve] daemon — one warm {!Session} behind a Unix-domain
    socket, speaking newline-delimited JSON.

    {b Protocol.}  One request object per line, one response object per
    line, answered strictly in order per connection:

    {v
    request  := { "op": OP, "id"?: string|number, ...op fields }
    OP       := "check" | "query" | "retrieve" | "classify" | "update"
              | "stats" | "metrics" | "audit" | "snapshot" | "shutdown"

    query    := + "individual": string, "concept": surface-syntax string
    retrieve := + "concept": string, "all"?: bool (include Neither rows)
    update   := + "script": delta-script text (dl4 +/- surface syntax)
    audit    := + "top"?: number (default 5), "exactly"?: string
                (truth-value set, e.g. "B" or "B,N")
    snapshot := + "path"?: string (defaults to the configured autosave path)
    v}

    Every response is built as a {!Json_lite.t} and printed once; a
    numeric [id] goes back as the request's own number text (the number
    rule would print [1e20] as [1e+20]).  Every successful response is
    [{"id":…, "ok":true, "trace_id":…, …payload, "cost":{…}, "cache":{…}}]
    where [trace_id] is the request's freshly minted trace ID (present
    when telemetry is armed; the same ID stamps the request's cost
    records, spans, slow-log lines, flight events and access-log line),
    [cost] is the request's {e marginal} work (tableau calls, computed
    verdicts, cache-served checks, wall time — diffed around the
    handler, the PR 5 accounting surface; it also repeats [trace_id])
    and [cache] the live verdict cache counters — so a client can prove
    a repeated query was served warm ([cost.tableau_calls = 0]).
    Failures are [{"id":…, "ok":false, "trace_id":…, "error":…}]; no
    request — malformed JSON, unknown op, bad concept syntax, delta
    parse errors — ever kills the daemon.  A tableau run that exceeds
    the session's per-run node or branch budget fails its request with
    ["error":"resource limit: …"]; the tripped verdict is not cached, so
    the next request within the budget answers normally.  An [update]
    is atomic: a script that trips, or that a pinned Horn backend
    refuses (it leaves the fragment), is rolled back whole and answers
    ["error":"<reason>; the update was not applied"].

    {b Telemetry.}  Unless disarmed at {!create}, the daemon owns a
    {!Telemetry.t} registry fed once per request (op, outcome, wall
    time, backend routes, cache hits).  The [metrics] op returns its
    JSON rendering; {!run} can additionally write the Prometheus text
    exposition to a file on an interval, and every request appends one
    line to a rotating JSONL access log when one is configured.

    {b Files.}  The access log, the drift log, the scrape file and
    snapshots are written through {!Sink}, under its failure rule: the
    logs open in {!create} and the scrape file is first written in
    {!run} before the bind, each raising [Sys_error] there; after the
    bind nothing written stops the daemon. *)

type t

val default_access_log_max_bytes : int
(** 16 MiB — the rotation threshold when the caller does not choose. *)

val create :
  ?snapshot_path:string ->
  ?telemetry:bool ->
  ?access_log:string ->
  ?access_log_max_bytes:int ->
  ?drift_log:string ->
  Session.t ->
  t
(** Wrap a (typically snapshot-restored) session for serving.
    [snapshot_path] is the idle-autosave and default [snapshot]-op
    target; omit it to disable autosave.  [telemetry] (default [true])
    arms the per-op registry and per-request trace IDs; [false] is the
    disarmed baseline bench S11 measures against.  [access_log] names a
    JSONL file receiving one line per request; the request path only
    queues a compact pending record, with rendering and writes deferred
    to a drain on the idle/metrics ticks, {!sync} and shutdown.  It is
    a {!Sink.log} rotated once to [path ^ ".1"] when it would exceed
    [access_log_max_bytes] (default 16 MiB, clamped to ≥ 1 KiB).
    Both logs are opened here: a file that cannot be opened raises
    [Sys_error].

    [drift_log] arms truth-value drift tracking: every [update] request
    is bracketed by a census (the cached one before, a fresh one after),
    and each transition set ({!Audit.diff} — e.g. a fact moving [t]→⊤)
    appends one {!Audit.drift_line} JSONL record to the file.  Arming it
    makes updates pay up to two censuses — an explicit operator opt-in.

    The [audit] op serves {!Audit.report_json} for a census of the live
    KB, cached across requests and invalidated by [update]; its response
    carries ["cached": true] when the census was served warm.  The
    census also feeds the [dl4_kb_truth_total{value=…}] /
    [dl4_kb_inconsistency_ratio] KB-health gauges, refreshed with the
    static size gauges on the metrics tick and by the [metrics] op. *)

val session : t -> Session.t

val telemetry : t -> Telemetry.t option
(** The daemon's registry; [None] when disarmed at {!create}. *)

val stopped : t -> bool
(** Has a [shutdown] request been handled? *)

val op_names : string list
(** The protocol's ops, in the order of the grammar above: the table
    {!handle} dispatches on, the vocabulary its telemetry labels are
    clamped to, and the list [dl4 serve] prints when it starts. *)

val handle : t -> string -> string
(** [handle t line] maps one request line to one response line (no
    trailing newline).  This is the entire protocol — the socket loop
    adds only byte shuttling — so tests and in-process benchmarks drive
    it directly.  Never raises.

    When telemetry is armed, each call mints a trace ID and installs it
    via {!Obs.set_trace_id} for the duration of the request, records
    the request into the registry, and queues the access-log record. *)

val sync : t -> unit
(** Drain queued access-log records to disk so readers see every line
    for requests handled so far.  [run] calls this on the metrics tick,
    on idle timeouts and at shutdown; tests driving {!handle} directly
    call it before reading the file. *)

val run :
  ?idle_save:float ->
  ?metrics_out:string ->
  ?metrics_interval:float ->
  ?on_listen:(unit -> unit) ->
  socket_path:string ->
  t ->
  unit
(** Bind [socket_path] (replacing any stale socket file), call
    [on_listen] once the socket listens, serve until a [shutdown]
    request, then autosave (if due), close every connection and remove
    the socket file.  Single-threaded [select] loop; SIGPIPE is
    ignored.  [idle_save > 0] arms the autosave tick: after that many
    seconds with no traffic, a dirty session (new verdicts or applied
    deltas since the last save) is snapshotted to [snapshot_path].

    [metrics_out] arms the scrape file: the Prometheus exposition is
    written there by {!Sink.replace} at startup, at shutdown and at most
    every [metrics_interval] seconds (default 5, clamped to ≥ 0.05)
    while serving; the access log is flushed on the same tick.  The
    startup write comes before the bind and raises [Sys_error] if it
    fails; a later one that fails is tried again on the next tick.
    Ignored when telemetry was disarmed at {!create}. *)

val request : ?timeout_ms:int -> socket_path:string -> string -> string
(** Client side: connect, send one request line, read one response line.
    Used by [dl4 client] and the CI smoke test (no netcat dependency).
    [timeout_ms > 0] arms [SO_RCVTIMEO]/[SO_SNDTIMEO] on the socket, so
    a wedged daemon raises [Unix.Unix_error (EAGAIN | EWOULDBLOCK, _, _)]
    instead of hanging the caller forever. *)
