(** The unified session facade — one value that owns the whole reasoning
    stack for one evolving knowledge base.

    A {!t} bundles the four-valued KB [K], its classical induced KB [K̄],
    the entailment {!Oracle} (owner of the verdict cache) and the
    {!Engine} indexes behind a single {!config} record — the one
    session-construction surface (the legacy per-constructor optional
    arguments were removed).  New code builds a session (or passes a
    {!config} to [of_config]) and derives the layer it needs:

    {[
      let s = Session.create ~config:{ Session.default_config with cache_capacity = 512 } kb in
      let p = Para.of_engine (Session.engine s) in
      ...queries...
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
          backend, [Horn] requires the fragment (raises
          [Backend.Unsupported] otherwise) *)
}

val default_config : config

type t

val create : ?config:config -> Kb4.t -> t
(** Build the full stack over [kb]: transform to [K̄], prepare the
    tableau, create the oracle and the (lazy) engine indexes. *)

val of_engine : Engine.t -> t
val of_oracle : Oracle.t -> t
(** Wrap an existing layer; everything (cache, indexes) is shared with
    other wrappers of the same oracle. *)

val engine : t -> Engine.t
(** The index layer — classification, realization, cached query
    services.  [Para.of_engine (engine s)] derives the paper-level
    query API on the same shared stack. *)

val oracle : t -> Oracle.t
val kb : t -> Kb4.t
(** The current four-valued KB, reflecting every applied delta. *)

val classical_kb : t -> Axiom.kb
val config : t -> config

val apply : t -> Delta.t -> Oracle.apply_stats
(** Apply an incremental update to the session's KB (see
    {!Oracle.apply} for the invalidation contract).  Every layer views
    the updated KB afterwards; retained verdicts keep serving hits. *)

val apply_all : t -> Delta.t list -> Oracle.apply_stats
(** Replay a delta script in order.  The returned stats accumulate
    [evicted]/[recheck_calls] and OR the flush/flip flags; [retained] is
    the final value. *)

(** {1 Cost accounting}

    Session views of the oracle's per-verdict cost layer (see
    {!Oracle.cost}): always on, survives deltas at the totals level.
    Both views carry the tableau's own work record, {!Tableau.stats}. *)

val costs : t -> Oracle.cost list
(** Retained per-verdict cost records, most expensive first. *)

val cost_totals : t -> Oracle.cost_totals
(** Aggregate work since session creation, independent of cache
    eviction and applied deltas. *)
