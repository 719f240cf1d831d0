(** KB inconsistency auditing: the contradiction census, its stable
    [dl4-audit/1] report, and census-to-census drift records.

    The four-valued semantics assigns every fact one of [t]/[f]/⊤/⊥;
    {!census} sweeps the told fact space — named individuals × atomic
    concepts, plus the told role assertions — through the batched
    {!Para.instance_truths}/{!Para.role_truths} grids and tabulates the
    exact value of every fact.  From the census come the KB-health
    numbers an operator watches: per-value counts, the
    degree-of-inconsistency ratio |⊤| / |decided|, the most-contradictory
    individuals and concepts (with per-verdict provenance when the oracle
    retains it), and per-concept ⊤-rates.  {!diff} compares two censuses
    fact by fact, which is how `dl4 serve` reports a delta poisoning the
    KB ([t]→⊤ transitions) to its drift log. *)

type fact =
  | Concept_fact of string * string  (** individual, atomic concept *)
  | Role_fact of string * Role.t * string  (** told role assertion *)

val fact_to_string : fact -> string
(** [Doctor(john)] / [hasPatient(bill, mary)]. *)

type census = {
  cs_individuals : int;  (** named individuals swept *)
  cs_concepts : int;  (** atomic concepts swept *)
  cs_role_facts : int;  (** told role assertions swept *)
  cs_entries : (fact * Truth.t) list;
      (** every audited fact with its exact value, in a stable order:
          the (individual × sorted concept) grid first — individuals in
          signature order — then the sorted role assertions *)
}

val census : Para.t -> census
(** Sweep the fact space as two batched oracle grids (one
    {!Para.instance_truths} call for the concept grid, one
    {!Para.role_truths} call for the role assertions); repeated
    questions share one verdict. *)

val census_naive : Para.t -> census
(** The per-fact reference: one sequential two-probe
    {!Para.instance_truth}/{!Para.role_truth} call per fact.  Same
    entries as {!census}, in the same order — the differential-testing
    ground truth. *)

(** {1 Derived health numbers} *)

val count : census -> Truth.t -> int
val decided : census -> int
(** Facts carrying any information: value [t], [f] or ⊤. *)

val inconsistency_ratio : census -> float
(** |⊤| / |decided| — the degree of inconsistency ([0.] when nothing is
    decided). *)

val per_concept : census -> (string * int * int) list
(** Per atomic concept: (name, ⊤-count, decided count), every swept
    concept, sorted by name. *)

val top_individuals : census -> k:int -> (string * int) list
(** The at-most-[k] individuals with the most ⊤-valued facts (role facts
    count toward both endpoints), most contradictory first, ties by
    name; individuals with no contradiction are omitted. *)

val top_concepts : census -> k:int -> (string * int) list
(** The at-most-[k] atomic concepts with the most ⊤-valued grid entries,
    most contradictory first, ties by name; zero entries omitted. *)

val schema : string
(** ["dl4-audit/1"]. *)

val report :
  ?top:int -> ?exactly:Truth.t list -> Para.t -> census -> Json_lite.t
(** The stable [dl4-audit/1] report: KB dimensions, per-value counts,
    [decided], [inconsistency_ratio], [per_concept] breakdown (with
    ⊤-rates), and the top-[top] (default 5) individuals and concepts —
    each top individual carrying the union of the oracle provenance of
    its contradictory facts, when retained.  With [?exactly], a [facts]
    array additionally lists every audited fact whose value is exactly
    in the set.  The serve [audit] op embeds it. *)

val report_json :
  ?top:int -> ?exactly:Truth.t list -> Para.t -> census -> string
(** {!report} printed on one line. *)

(** {1 Drift} *)

type transition = {
  tr_fact : fact;
  tr_from : Truth.t option;  (** [None]: fact absent before the delta *)
  tr_to : Truth.t option;  (** [None]: fact absent after the delta *)
}

val diff : census -> census -> transition list
(** Fact-by-fact comparison of two censuses: facts whose value changed
    (e.g. [t]→⊤ — a delta poisoning the KB), facts that appeared, facts
    that vanished.  Ordered as the new census orders surviving facts,
    vanished facts last. *)

val drift_line :
  ?trace:string -> ts_unix:float -> before:census -> after:census -> unit ->
  string option
(** One JSONL drift record for an applied delta — [None] when nothing
    changed.  Carries the changed facts with their old/new values
    (["-"] for absent), the new per-value counts and the new ratio, in
    the access-log/slow-log sink style.  The leading [ts_unix] is
    printed fixed-point to the millisecond; the rest is a
    {!Json_lite.t}. *)
