(** The memoizing classification & realization engine over the four-valued
    reduction — the query-traffic front end of the stack.

    An {!t} is a thin index layer over one {!Oracle}: the oracle owns the
    classical induced KB [K̄] (Definition 7) and the verdict cache; the
    engine adds the lazily-built classification ({!Classify}) and
    realization ({!Realize}) indexes, whose every test is an
    {!Oracle.check}.  One-shot callers get the same answers as {!Para};
    repeated query traffic is served from the cache and the indexes
    instead of re-running the tableau. *)

type t

val of_config : Oracle.config -> Kb4.t -> t
(** The canonical constructor: build a fresh oracle from the unified
    {!Oracle.config} and wrap it.  {!Session.create} routes through
    this. *)

val of_oracle : Oracle.t -> t
(** Build the index layer over an existing oracle.  The wrapper adds no
    state of its own below the classification/realization indexes: it
    shares the oracle's verdict cache with every other consumer of the same oracle (e.g. a {!Para} built over it), so a
    verdict paid through one wrapper is a cache hit through another. *)

val oracle : t -> Oracle.t
val default_cache_capacity : int
val kb : t -> Kb4.t
val reasoner : t -> Reasoner.t

(** {1 Cached reasoning services}

    Same semantics as the corresponding {!Para} queries; every verdict
    routes through {!Oracle.check} and is memoized under canonical query
    keys. *)

val satisfiable : t -> bool
val entails_instance : t -> string -> Concept.t -> bool
val entails_not_instance : t -> string -> Concept.t -> bool
val instance_truth : t -> string -> Concept.t -> Truth.t
val role_truth : t -> string -> Role.t -> string -> Truth.t
val entails_inclusion : t -> Kb4.inclusion -> Concept.t -> Concept.t -> bool
val concept_satisfiable : t -> Concept.t -> bool

val subsumes : t -> string -> string -> bool
(** Atomic internal subsumption [⊏] — the classification oracle. *)

(** {1 Told information} *)

val told_subsumptions : Kb4.t -> (string * string) list
(** Atomic subsumptions syntactically present in the TBox: one [(a, b)] per
    internal or strong inclusion with atomic left-hand side [a] and [b]
    ranging over the atoms in conjunctive positions of the right-hand side.
    Sound for internal subsumption by Definition 6. *)

(** {1 Indexes} *)

val classification : t -> Classify.t
(** Built on first use by {!Classify.run} (told seeding and DAG
    pruning); cached. *)

val classify : t -> (string * string list) list
(** Same contents as the naive all-pairs loop ({!Para.classify_naive}). *)

val taxonomy : t -> (string list * string list) list

val realization : t -> Realize.t
(** Built on first use by {!Realize.run} on top of {!classification};
    cached. *)

(** {1 Snapshot export / import}

    The classification index is a pure function of the TBox and concept
    signature, so it transfers between engines over identical KBs.
    {!Dl_store} validates KB equality before calling
    {!restore_classification}; calling it with an index built over a
    different KB silently serves wrong taxonomies — never do that. *)

val classification_if_built : t -> Classify.t option
(** The index if it has been built (by {!classification} or a restore);
    [None] otherwise.  Never triggers a build. *)

val restore_classification : t -> Classify.t -> unit

(** {1 Incremental update} *)

val apply : t -> Delta.t -> Oracle.apply_stats
(** {!Oracle.apply} plus index maintenance: classification survives an
    ABox-only delta that neither flushed the cache nor introduced new
    atomic concepts (it is a pure function of TBox and concept
    signature); realization is dropped on any non-empty delta and
    rebuilt lazily, re-using every cached verdict that survived. *)

(** {1 Statistics} *)

type stats = {
  cache : Verdict_cache.stats;
  tableau_calls : int;
      (** tableau invocations actually paid (cache misses do, hits don't) *)
  routes : (string * int) list;  (** computed verdicts per backend *)
  classification : Classify.stats option;  (** [None] until built *)
  realization : Realize.stats option;
}

val stats : t -> stats
