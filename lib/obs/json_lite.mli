(** The one JSON module: a reader and a printer.

    The container ships no JSON library.  Every JSON document dl4 writes
    — serve responses, [dl4-audit/1] reports and drift lines,
    [dl4-plan/1], [dl4-metrics/1], [dl4-flight/1] dumps, slow-log
    records and the [--metrics-json] registry dump — is built as a {!t}
    and printed by {!to_buffer}/{!to_string}, so the escaping rule, the
    number rule and the separators live here and nowhere else.  The
    reader serves [dl4 profile], the validators and the serve protocol.

    Two sinks keep a hand-written number format, because {!number}
    would truncate their fixed-point values: the Chrome trace
    ({!Obs.trace_json}, [ts]/[dur] in microseconds with [%.3f]), which
    escapes its strings with {!escape}, and the leading [ts_unix] field
    of access-log and drift lines (epoch seconds to the millisecond),
    whose other members are a printed value. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** {1 Reading} *)

val parse : string -> (t, string) result
(** Parse a complete JSON document; [Error] carries a byte offset. *)

val member : string -> t -> t option
(** Object field lookup; [None] on missing fields and non-objects. *)

val member_text : string -> string -> string option
(** [member_text k s]: the source text of member [k]'s value, as
    {!member} would find it in the object the document [s] holds —
    byte for byte, so a number comes back as it was written.  [None]
    when [s] does not parse, is not an object or lacks [k]. *)

val to_num : t -> float option
val to_str : t -> string option
val to_list : t -> t list option

(** {1 Printing} *)

val to_buffer : Buffer.t -> t -> unit
(** Append the compact rendering of a value: no whitespace, object
    members in list order, strings per {!escape_into}, numbers per
    {!number}. *)

val to_string : t -> string
(** {!to_buffer} into a fresh string. *)

val escape_into : Buffer.t -> string -> unit
(** Append a string's JSON escaping, without the quotes: double quote,
    backslash, newline, carriage return and tab get their
    two-character escapes, every other byte below 0x20 becomes a
    [u00XX] escape (lowercase hex), and every other byte, UTF-8
    included, passes through. *)

val escape : string -> string
(** {!escape_into} into a fresh string. *)

val number : float -> string
(** The number rule: an integral value below 1e15 in magnitude prints
    as an integer, anything else with ["%.6g"]. *)

val int : int -> t
(** [Num (float_of_int n)]. *)
