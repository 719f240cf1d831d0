(** Paraconsistent reasoning with inconsistent OWL DL ontologies — the
    paper's contribution, as a library.

    The paper-level queries over a {!Session.t}: a [SHOIN(D)4] knowledge
    base [K] together with its classical induced KB [K̄] (Definition 7).
    By Theorem 6, the four-valued models of [K] correspond exactly to the
    classical models of [K̄], so every four-valued reasoning task below is
    answered by classical reasoning over [K̄] — "mature reasoning
    mechanisms of classical description logic remain useful" (§6).

    Every boolean entailment verdict of this module is one
    {!Oracle.check} on the session's oracle and its shared
    canonical-keyed verdict cache, so repeated and batch query traffic
    (retrieval, contradiction scans, conjunctive queries) pays each
    distinct tableau question once.  The KB, the oracle, the
    classification, inclusion entailment ({!Session.entails_inclusion},
    which the classification tests) and the updates are {!Session}'s.

    The flagship query is {!instance_truth}: the Belnap value the knowledge
    base supports for [C(a)] —

    - [True]: there is information that [a] is a [C] and none that it is
      not;
    - [False]: information that it is not, none that it is;
    - [Both] (⊤): the KB is contradictory about [C(a)] — the contradiction
      is {e localized} here instead of trivializing the KB;
    - [Neither] (⊥): the KB says nothing about [C(a)]. *)

type t = Session.t

val create : ?config:Session.config -> Kb4.t -> t
(** {!Session.create}; [config] defaults to {!Session.default_config}. *)

val of_session : Session.t -> t
(** The identity; kept because the benchmark harness under [perf/]
    calls it. *)

val classical_reasoner : t -> Reasoner.t
(** The oracle's coordinating reasoner — for non-verdict services (model
    extraction, tableau statistics), not a query back door. *)

val satisfiable : t -> bool
(** Four-valued satisfiability of [K], decided as classical satisfiability
    of [K̄] (Theorem 6).  Unlike classical [SHOIN(D)], most inconsistent
    ontologies are four-valued satisfiable; unsatisfiability arises only
    from hard constraints (⊥-assertions, number-restriction conflicts on
    told information, ≠-clashes). *)

val entails_instance : t -> string -> Concept.t -> bool
(** [entails_instance t a c] is [K ⊨⁴ C(a)]: does every four-valued model
    put [aᴵ ∈ proj⁺(Cᴵ)]?  Decided as inconsistency of
    [K̄ ∪ {ā : ¬C̄}]. *)

val entails_not_instance : t -> string -> Concept.t -> bool
(** [K ⊨⁴ (¬C)(a)] — "is there information that [a] is not a [C]?". *)

val instance_truth : t -> string -> Concept.t -> Truth.t
(** Combines the two entailments into the supported Belnap value. *)

val instance_truths :
  t -> (string * Concept.t) list -> (string * Concept.t * Truth.t) list
(** Batched {!instance_truth}: both information bits of every pair are
    submitted to the oracle as one {!Oracle.check_all} batch, in input
    order — the building block of {!retrieve}, {!contradictions},
    {!truth_table} and {!inconsistency_degree}. *)

val role_truths :
  t ->
  (string * Role.t * string) list ->
  (string * Role.t * string * Truth.t) list
(** Batched {!role_truth}, in input order — the role-edge twin of
    {!instance_truths}, used by the query planner's hash-join
    materialization. *)

val role_truth : t -> string -> Role.t -> string -> Truth.t
(** Supported Belnap value for [R(a, b)]: told-true iff [K̄ ⊨ R⁺(a,b)],
    told-false iff [K̄ ∪ {R⁼(a,b)}] is inconsistent (the negative part of
    [Rᴵ] is the complement of [R⁼] under Definition 8). *)

val classify_naive : t -> (string * string list) list
(** The O(n²) all-pairs baseline — one oracle subsumption test per ordered
    pair of distinct atoms, no told seeding or DAG pruning.  Kept as the
    differential-testing and benchmarking reference for
    {!Session.classify}. *)

val contradictions : t -> (string * string) list
(** All (individual, atomic concept) pairs whose {!instance_truth} is [Both]
    — the localized contradictions of the ontology.  Quadratic in the
    signature; evaluated as one batched grid.  Meant for diagnosis and the evaluation harness. *)

val truth_table : t -> individuals:string list -> concepts:Concept.t list ->
  (string * (Concept.t * Truth.t) list) list
(** [truth_table t ~individuals ~concepts] evaluates {!instance_truth} on
    the grid (batched) — the shape of the paper's Table 4. *)

val retrieve : t -> Concept.t -> (string * Truth.t) list
(** The supported Belnap value of [C(a)] for every named individual of the
    KB — four-valued instance retrieval, submitted as one oracle batch. *)

val retrieve_naive : t -> Concept.t -> (string * Truth.t) list
(** The pre-refactor sequential loop (one {!instance_truth} per
    individual).  Same answers as {!retrieve}; kept as its
    differential-testing reference. *)

val retrieve_instances : t -> Concept.t -> string list
(** The individuals whose value for [C] is designated ([t] or ⊤). *)

val inconsistency_degree : t -> float
(** Fraction of entries of the (individual × atomic concept) grid that are
    valued ⊤, among the entries carrying any information (value ≠ ⊥) — a
    simple inconsistency measure in the style of the paraconsistency
    literature.  [0.] for contradiction-free KBs (and for empty grids). *)

val find_model4 : t -> Interp4.t option
(** A verified finite four-valued model of [K], obtained by extracting a
    classical model of [K̄] from the tableau and reading it back through
    Definition 9.  [None] if [K] is 4-unsatisfiable or no finite model was
    constructed. *)
