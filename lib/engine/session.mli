(** The reasoning session — one value that owns the whole stack for one
    evolving knowledge base.

    A {!t} is the entailment {!Oracle} (owner of the four-valued KB [K],
    its classical induced KB [K̄], the verdict cache, provenance, cost
    records and routing) plus the lazily built classification
    ({!Classify}) and realization ({!Realize}) indexes, whose every test
    is an {!Oracle.check}.  One {!config} record is the one construction
    surface.  The paper-level queries are {!Para}'s, over the same
    value:

    {[
      let s = Session.create ~config:{ Session.default_config with cache_capacity = 512 } kb in
      let v = Para.instance_truth s "tweety" (Concept.Atom "Fly") in
      let _ = Session.apply s delta in     (* incremental update *)
      ...more queries, warm cache...
    ]} *)

type config = Oracle.config = {
  cache_capacity : int;  (** verdict-cache bound; [0] disables caching *)
  max_nodes : int;  (** tableau node budget per run *)
  max_branches : int;  (** tableau branch budget per run *)
  backend : Backend.choice;
      (** verdict routing: [Tableau] (default) pins every query to the
          tableau, [Auto] routes Horn-fragment work to the completion
          engine, [Horn] requires the fragment (raises
          [Backend.Unsupported] otherwise) *)
}

val default_config : config

type t

val create : ?config:config -> Kb4.t -> t
(** Build the full stack over [kb]: transform to [K̄], prepare the
    tableau, create the oracle; the indexes are built on first use. *)

val oracle : t -> Oracle.t
val kb : t -> Kb4.t
(** The current four-valued KB, reflecting every applied delta. *)

val classical_kb : t -> Axiom.kb
(** The induced [K̄] of Definition 7. *)

val config : t -> config

(** {1 Verdicts} *)

val check : t -> Oracle.query -> bool
(** {!Oracle.check} on the session's oracle: the one road to a verdict
    for the indexes below and for {!Para}. *)

val entails_inclusion : t -> Kb4.inclusion -> Concept.t -> Concept.t -> bool
(** Corollary 7: [C ⊑kind D] holds in [K] iff the corresponding test
    concepts are unsatisfiable w.r.t. [K̄]. *)

val subsumes : t -> string -> string -> bool
(** [subsumes t a b] is internal subsumption [a ⊏ b] between atomic
    concepts ({!entails_inclusion} at [Internal]): the classification
    test. *)

(** {1 Told information} *)

val told_subsumptions : Kb4.t -> (string * string) list
(** Atomic subsumptions syntactically present in the TBox: one [(a, b)] per
    internal or strong inclusion with atomic left-hand side [a] and [b]
    ranging over the atoms in conjunctive positions of the right-hand side.
    Sound for internal subsumption by Definition 6. *)

(** {1 Indexes} *)

val classification : t -> Classify.t
(** Built on first use by {!Classify.run} (told seeding and DAG
    pruning) over internal subsumption [⊏] (Corollary 7); cached. *)

val classify : t -> (string * string list) list
(** Atomic concept hierarchy under internal inclusion ⊏: each atom with
    its strict subsumers.  Same contents as the naive all-pairs loop
    ({!Para.classify_naive}). *)

val taxonomy : t -> (string list * string list) list
(** The classification as a reduced taxonomy: equivalence classes of
    atomic concepts (each led by its canonical representative) paired
    with their {e direct} super-class representatives (transitive
    reduction of {!classify}). *)

val realization : t -> Realize.t
(** Built on first use by {!Realize.run} on top of {!classification};
    cached. *)

(** {1 Snapshot export / import}

    The classification index is a pure function of the TBox and concept
    signature, so it transfers between sessions over identical KBs.
    {!Dl_store} validates KB equality before calling
    {!restore_classification}; calling it with an index built over a
    different KB silently serves wrong taxonomies — never do that. *)

val classification_if_built : t -> Classify.t option
(** The index if it has been built (by {!classification} or a restore);
    [None] otherwise.  Never triggers a build. *)

val restore_classification : t -> Classify.t -> unit

(** {1 Incremental update} *)

val apply : t -> Delta.t -> Oracle.apply_stats
(** {!Oracle.apply} (see there for the invalidation contract) plus index
    upkeep: classification survives an ABox-only delta that neither
    flushed the cache nor introduced new atomic concepts (it is a pure
    function of TBox and concept signature); realization is dropped on
    any non-empty delta and rebuilt lazily, re-using every cached verdict
    that survived.  When {!Oracle.apply} raises, the update was not
    applied (the KB is the one before it) and both indexes are dropped. *)

val apply_all : t -> Delta.t list -> Oracle.apply_stats
(** Replay a delta script in order, as one update ({!Oracle.atomically}):
    if any delta raises, the deltas before it are undone too, so {!kb} is
    the pre-script KB, and both indexes are dropped.  The returned stats
    accumulate [evicted]/[recheck_calls] and OR the flush/flip flags;
    [retained] is the final value. *)

(** {1 Cost accounting}

    Session views of the oracle's per-verdict cost layer (see
    {!Oracle.cost}): always on, survives deltas at the totals level.
    Both views carry the tableau's own work record, {!Tableau.stats}. *)

val costs : t -> Oracle.cost list
(** Retained per-verdict cost records, most expensive first. *)

val cost_totals : t -> Oracle.cost_totals
(** Aggregate work since session creation, independent of cache
    eviction and applied deltas. *)
