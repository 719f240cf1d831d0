(** The query vocabulary of the two decision procedures and the routing
    choice between them.

    Every boolean verdict in the system is one of the six [query] forms
    below, asked against the transformed classical KB (K̄).  Two
    procedures decide them: the tableau ([Backend_tableau]) answers
    everything; the Horn/EL completion engine ([Horn_backend]) answers
    the queries whose shape it can decide, on the KBs in its fragment.

    The oracle owns routing: it builds the completion engine once per KB
    build and asks [Horn_backend.can_answer] once per query.  Nothing
    outside [lib/engine] may evaluate a query directly — verdicts must
    flow through [Oracle.check] so caching, provenance, cost accounting
    and invalidation stay sound (the differential suite greps for
    violations). *)

(** The closed query vocabulary, shared with [Oracle].  Concepts are the
    user-level four-valued concepts; each backend applies the Definition
    5–7 transform ([Transform]) internally, exactly like the tableau
    path always has. *)
type query =
  | Consistent
  | Concept_sat of Concept.t
  | Instance of string * Concept.t
  | Not_instance of string * Concept.t
  | Role_pos of string * Role.t * string
  | Role_neg of string * Role.t * string

val query_kind : query -> string
(** Short stable tag: ["consistent"], ["concept_sat"], ["instance"],
    ["not_instance"], ["role_pos"], ["role_neg"].  Keys cost records and
    profile grouping. *)

val query_to_string : query -> string
(** Printable form for diagnostics and the slow-query log. *)

(** Backend selection policy, configured per session ([--backend]).
    [Auto] routes each verdict to the cheapest complete backend;
    [Tableau] forces the general tableau; [Horn] forces the completion
    engine and refuses KBs outside its fragment. *)
type choice = Auto | Tableau | Horn

val choice_of_string : string -> (choice, string) result
val choice_to_string : choice -> string

exception Unsupported of string
(** Raised when a forced backend ([choice = Horn]) is asked to build
    against a KB outside its complete fragment.  The payload names the
    first offending axiom. *)
