(** Flight recorder: a bounded ring buffer of recent tableau events, so
    a run that trips [max_nodes]/[max_branches] leaves a post-mortem
    instead of a bare exception.

    Design mirrors {!Obs}: one [bool ref] master gate read inline at
    every site ([if !Flight.on then Flight.record ...] is a load and a
    branch when disarmed), and recording stays cheap when armed — events
    are written in place into one fixed {!capacity}-slot ring of parallel
    arrays, so the hot path takes no lock and builds no event record.  Each
    tableau hook site records its event from the same call that bumps
    its {!Tableau.stats} cell.

    The dump is a point-in-time JSON snapshot ({!schema}), built as a
    {!Json_lite.t} and printed on one line: the retained events
    oldest-first with total/dropped accounting, listed as the one entry
    of the schema's per-domain array. *)

val schema : string
(** ["dl4-flight/1"] — the [schema] field of every dump. *)

val on : bool ref
(** Master gate, read inline by instrumentation sites. *)

val capacity : int
(** [1024] — the fixed ring depth: the events retained (older events
    are overwritten) and the dump's ["capacity"] field. *)

val arm : ?path:string -> unit -> unit
(** Start recording.  With [path], {!trip} writes the dump there
    immediately; the CLI's [--flight FILE] arms it this way and writes
    the dump again when the run ends. *)

val disarm : unit -> unit
(** Stop recording; retained events survive until {!reset}. *)

val record : string -> int -> int -> string -> unit
(** [record kind node other note] appends an event to the ring.  [node]/[other] are tableau node ids ([-1] when not
    applicable).  Callers must check [!on] first — the function itself
    records unconditionally so tests can drive it directly. *)

val trip : string -> unit
(** Record a ["trip"] event carrying [reason] as its note and, when a
    dump path is armed, write the dump immediately — called from the
    tableau's resource-limit raise sites so the dump exists even if the
    exception escapes the process.  A dump that cannot be written is
    skipped here, so the trip still raises its own exception. *)

val dump : unit -> string
(** The JSON snapshot: [{"schema", "capacity", "overflow_dropped",
    "domains": [{"tid", "total", "dropped", "events": [{"ns", "kind",
    "node", "other", "note"}...]}]}] with one [domains] entry ([tid] 0,
    [overflow_dropped] 0), events oldest-first and [ns] relative to
    process start, rounded to whole nanoseconds.  Events recorded while
    a trace ID was installed ({!Obs.set_trace_id}) additionally carry a
    ["trace"] field, correlating ring entries with the request that
    caused them. *)

val write : string -> unit
(** {!dump} and a newline, written to [path] by {!Sink.replace}
    (atomic; raises [Sys_error]). *)

val events_recorded : unit -> int
(** Total events recorded since the last {!reset}, including
    overwritten ones. *)

val reset : unit -> unit
(** Drop the ring and its counters; the next event starts a fresh
    ring. *)
