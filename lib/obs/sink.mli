(** How dl4 writes a file: an {e artifact} (a snapshot, a report, a
    dump, the scrape file) is written whole by {!replace}; a {e log}
    (the slow, access and drift logs) grows by {!line}s.

    {b The failure rule.}  {!replace} and {!log} raise
    [Sys_error (path ^ ": " ^ reason)], naming the path the caller gave;
    {!line}, {!flush} and {!close} never raise, and a line that cannot
    be written is dropped.  So the CLI stops before any work on a log it
    cannot open, reports an artifact it cannot write after its own
    output (both as [dl4 CMD: cannot write PATH: REASON], exit 2), and
    the daemon opens and writes what it can fail on before it binds. *)

val replace : string -> string -> unit
(** [replace path contents] writes [path ^ ".tmp"] and renames it onto
    [path], so a reader sees the old file or the new one.  On failure
    the tmp file is removed, [path] is untouched and [Sys_error] is
    raised.  One mutex serialises every replace in the process. *)

type log
(** An append-only file of lines, with its own mutex. *)

val log : ?max_bytes:int -> string -> log
(** Open [path] for appending now (created with mode 0o644).  With
    [max_bytes], a {!line} that would take the file past it first
    renames the file to [path ^ ".1"] and starts a fresh one, so no line
    is split; bytes already in the file count. *)

val line : log -> string -> unit
(** Append the string and a newline, buffered. *)

val flush : log -> unit

val close : log -> unit
(** Flush and close; later lines are dropped. *)
