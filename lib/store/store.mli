(** Persistent KB store — the [dl4-snap/4] versioned snapshot format
    (3: cost records carry the trace ID that paid for them; 4: the
    config drops the pool width and cost records the shard id).

    A snapshot freezes the warm state of one {!Session} over one KB: the
    four-valued KB and its induced classical KB, the classification index
    (if built), every cached verdict with its provenance and cost record,
    the session cost totals and the session config.  {!restore} rebuilds
    a session from it without re-running any tableau: repeated queries
    against a restored session are pure cache hits.

    {b File layout} (all integers little-endian):
    {v
    magic "dl4-snap" | u32 version | u32 section count
    section table: (name, u32 payload length, u32 adler32) per section
    payloads, concatenated in table order
    v}

    Sections: ["config"], ["kb"], ["ckb"], ["classify"], ["verdicts"],
    ["totals"], ["cache_stats"].  Every payload uses the explicit binary
    codecs of {!Snap_codec} — constructor tags and field orders are part
    of the format; any structural change bumps {!version}.

    {b Validation.}  Loading verifies magic, version and per-section
    checksums; {!restore} additionally verifies the snapshot was taken
    over the KB the caller is asking about and that the stored classical
    KB is the transform of the stored four-valued KB.  Every failure is a
    clean {!error} — callers fall back to a cold build and never serve
    from a corrupt or stale snapshot. *)

val magic : string
val version : int

type snapshot = {
  s_config : Oracle.config;  (** session config at capture time *)
  s_kb : Kb4.t;  (** the four-valued KB the state is valid for *)
  s_classical : Axiom.kb;  (** the induced [K̄] at capture time *)
  s_classification : Classify.t option;  (** index, if it had been built *)
  s_entries : Oracle.export_entry list;
      (** cached verdicts in LRU order (least recent first), each with
          its provenance and cost record where retained *)
  s_totals : Oracle.cost_totals;  (** session-lifetime work history *)
  s_cache_stats : Verdict_cache.stats;  (** hit/miss/eviction counters *)
}

type error =
  | Io of string  (** file could not be read or written *)
  | Bad_magic  (** not a dl4 snapshot at all *)
  | Bad_version of int  (** written by an incompatible format version *)
  | Bad_checksum of string  (** named section failed its Adler-32 check *)
  | Corrupt of string  (** structurally invalid payload *)
  | Kb_mismatch  (** snapshot is for a different KB than requested *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val capture : Session.t -> snapshot
(** Freeze the session's current warm state.  Cheap relative to the work
    it saves: no tableau runs, just an export of the cache and indexes.
    Captures the classification only if it has already been built —
    callers that want a warm taxonomy in the snapshot force the build
    first. *)

val to_string : snapshot -> string
val of_string : string -> (snapshot, error) result
(** Inverse pair: [of_string (to_string s) = Ok s], exactly — cost
    records and totals included.  The work vectors ({!Tableau.stats})
    travel as seven scalar cells then named [(name, count)] pairs for
    rule firings and ["clash.<cause>"] clash causes; names this build
    does not know are dropped on decode.  [of_string] never raises. *)

val save : snapshot -> string -> (unit, error) result
(** Write by {!Sink.replace} (atomic: a crash mid-save never leaves a
    torn snapshot under the real name); a failure is [Error (Io msg)]. *)

val load : string -> (snapshot, error) result

val restore :
  ?jobs:int -> ?kb:Kb4.t -> snapshot -> (Session.t, error) result
(** Build a warm session from a snapshot.  [?kb] is the KB the caller
    actually wants to reason over (e.g. re-parsed from the file the user
    named): if it differs structurally from the snapshot's KB the result
    is [Error Kb_mismatch] — warm verdicts are only sound over the exact
    KB they were computed against.  Omitting [?kb] trusts the snapshot's
    own KB.  The config is taken from the snapshot.  [?jobs] is accepted
    and ignored: it named the width of a domain pool that no longer
    exists, and is kept only so existing callers still compile. *)

val load_session : ?kb:Kb4.t -> string -> (Session.t, error) result
(** [load] followed by [restore]. *)

val pp_summary : Format.formatter -> snapshot -> unit
(** Human-readable one-glance description (KB size, cached verdicts,
    classification presence, totals). *)
