(** The entailment oracle — the single choke point for boolean tableau
    verdicts.

    Every reasoning service of the stack (instance and subsumption checks,
    role entailment, satisfiability, classification, realization,
    retrieval, conjunctive queries) bottoms out in a boolean question about
    the classical induced KB [K̄] of Definition 7.  An {!t} owns the one
    place those questions are answered: a canonical-keyed LRU
    {!Verdict_cache} in front of one classical {!Reasoner}, plus the Horn
    completion engine when the routing choice and K̄'s fragment allow it.
    Each computed verdict is routed to the completion engine when
    {!Horn_backend.can_answer} claims it and to the tableau
    ({!Backend_tableau.eval}) otherwise.

    {b Single owner.}  An oracle is single-domain and unsynchronized:
    every verdict is computed on the calling domain, and the cache (one
    record per verdict: the verdict, its provenance and its cost record)
    and the dependency indexes are updated in place.  The (intrusive-list)
    LRU structure therefore needs no lock.
    Callers that share an oracle across threads must serialize access to
    it, as [dl4 serve] does by handling one request at a time. *)

type t

(** The closed vocabulary of boolean entailment questions.  Concepts are
    four-valued surface concepts except in {!Concept_sat}, whose argument
    is already a classical test concept (e.g. from
    {!Transform.inclusion_tests}).  The type is an alias of
    {!Backend.query} — the vocabulary both decision procedures answer. *)
type query = Backend.query =
  | Consistent  (** is [K̄] satisfiable (= [K] four-valued satisfiable)? *)
  | Concept_sat of Concept.t
      (** is this classical concept satisfiable w.r.t. [K̄]? *)
  | Instance of string * Concept.t  (** [K ⊨⁴ C(a)] *)
  | Not_instance of string * Concept.t  (** [K ⊨⁴ (¬C)(a)] *)
  | Role_pos of string * Role.t * string  (** [K̄ ⊨ R⁺(a,b)] *)
  | Role_neg of string * Role.t * string
      (** is [K̄ ∪ {R⁼(a,b)}] inconsistent? — the told-false bit of
          [R(a,b)] under Definition 8 *)

(** {1 Construction}

    The one construction surface for the whole stack: {!Session.create}
    (and [Para.create], which is [Session.create]) routes through
    {!of_config}. *)

type config = {
  cache_capacity : int;
      (** verdict-cache capacity; [0] disables caching (every verdict
          pays its tableau call) *)
  max_nodes : int;  (** tableau node budget per run *)
  max_branches : int;
      (** tableau branch budget per run: a run that explores more
          branches than this raises [Tableau.Resource_limit] *)
  backend : Backend.choice;
      (** verdict routing policy.  [Tableau] (the library default) pins
          every verdict to the tableau.  [Auto] builds the Horn/EL
          completion engine when K̄ is in its fragment
          ({!Fragment.check}) and routes each verdict to it when it can
          answer ({!Horn_backend.can_answer}), falling back to the
          tableau otherwise.  [Horn] demands the fragment:
          {!of_config} raises {!Backend.Unsupported} when K̄ is outside
          it (per-query shapes the completion engine cannot answer
          still fall back to the tableau). *)
}

val default_config : config
(** [{ cache_capacity = default_cache_capacity;
      max_nodes = 20_000; max_branches = max_int;
      backend = Backend.Tableau }] *)

val of_config : config -> Kb4.t -> t
(** Build an oracle over the four-valued KB: transforms it to [K̄]
    (Definition 7) and prepares the reasoner.
    @raise Backend.Unsupported when [config.backend = Horn] and [K̄] is
    outside the Horn/EL fragment. *)

val default_cache_capacity : int
val kb : t -> Kb4.t
(** The current four-valued KB — reflects every applied delta. *)

val classical_kb : t -> Axiom.kb
(** The induced [K̄] of Definition 7 — reflects every applied delta. *)

val reasoner : t -> Reasoner.t
(** The tableau reasoner over [K̄] (for non-verdict services such as
    model extraction). *)

val config : t -> config

val tableau_calls : t -> int
(** Verdict evaluations attempted on this oracle since construction, on
    either route.  Unlike [(cost_totals t).verdicts] it leaves out
    imported history ({!import_totals}) and counts an evaluation that
    raised [Tableau.Resource_limit]. *)

val check : t -> query -> bool
(** Cached verdict for one query. *)

val check_all : t -> query list -> bool list
(** Verdicts for a batch, in input order: [List.map (check t)] under one
    [oracle.check_all] span. *)

(** {1 Provenance}

    Every verdict actually computed records
    which named individuals and user-level atomic concepts its tableau run
    touched, seeded with the query's own symbols — the dependency set that
    drives selective cache invalidation in {!apply}.  Recording is
    unconditional: it does not depend on observability sinks being armed
    ({!Obs.enabled} only adds spans and histograms on top).

    Verdicts whose entries are equal share one provenance group, and the
    dependency index posts groups rather than verdicts; the accessors
    below return the group's entry, so readers see the recorded values
    unchanged.

    A verdict's group is part of its record in the cache, so provenance
    lives exactly as long as the verdict is resident.  A capacity
    eviction, an explicit eviction and an import over a resident key each
    detach the verdict from its group in O(1), and a group left without
    verdicts leaves the index, so the index holds exactly the resident
    verdicts.  A disabled cache ([cache_capacity = 0]) records no
    provenance at all — nothing can be retained, so there is nothing to
    invalidate. *)

type prov_entry = {
  individuals : string list;  (** named ABox individuals touched, sorted *)
  concepts : string list;
      (** user-level (demangled) atomic concept names touched, sorted *)
}

val provenance : t -> query -> prov_entry option
(** The provenance of a currently retained verdict ([None] if the verdict
    was never computed, was invalidated by a delta, or fell out of the LRU
    cache; cache hits never re-record). *)

val provenances : t -> prov_entry list
(** The provenance entry of every retained verdict, one per verdict
    (verdicts sharing a group repeat its entry), unordered. *)

(** {1 Per-verdict cost accounting}

    Every verdict actually computed gets a cost record: the diff of the
    computing backend's {!Tableau.stats} cells around the eval
    ({!Tableau.diff_stats}), plus wall time.  The work vector is the
    tableau's own record, carried unchanged from the hook sites through
    cost records and session totals into snapshots.  Like provenance,
    recording is unconditional — no {!Obs} sink needs to be armed — and
    the cost record is part of the verdict's cache record, so it lives
    exactly as long as the verdict is resident (session totals in
    {!cost_totals} survive eviction).  The consistency bit re-stored
    across a consistency flip ({!apply}) has no cost record.

    When the {!Obs} slow-query log is armed, each computed verdict at or
    over the threshold additionally emits one JSONL record (cost,
    provenance symbols, cache disposition) at recording time. *)

type cost = {
  c_query : string;  (** printable form of the query *)
  c_kind : string;  (** {!query_kind} *)
  c_backend : string;  (** backend that computed it: ["tableau"]/["horn"] *)
  c_trace : string;
      (** trace ID current when the verdict was computed ([""] when no
          request context was installed, see {!Obs.set_trace_id}) *)
  c_wall_ns : float;
  c_work : Tableau.stats;
      (** the work the verdict paid: runs, nodes, merges, branches,
          backtracks, clashes (and their causes), blocking events and
          rule firings.  The Horn backend fills only [runs] and
          [clashes]. *)
  mutable c_hits : int;  (** cache hits served since computation *)
}

val cost : t -> query -> cost option
(** The cost record of a currently retained verdict ([None] under the
    same conditions as {!provenance}). *)

val costs : t -> cost list
(** All retained cost records, most expensive (by wall time) first. *)

type cost_totals = {
  verdicts : int;  (** verdicts computed (cache misses paid) *)
  cache_served : int;  (** checks answered from the cache *)
  slow : int;  (** computed verdicts at/over the slow-log threshold *)
  wall_ns : float;  (** total eval wall time *)
  work : Tableau.stats;
      (** the sum of every computed verdict's [c_work] (a copy: later
          verdicts do not change it) *)
  backends : (string * int) list;
      (** verdicts computed per backend, sorted by name *)
}

val cost_totals : t -> cost_totals
(** Session-level aggregate since construction — independent of cache
    eviction and KB deltas (deltas reset verdicts, not history). *)

val query_to_string : query -> string

(** {1 Snapshot export / import}

    The explicit state-transfer surface behind {!Dl_store}'s persistent
    snapshots: the warm contents of the verdict cache (each resident
    record: the verdict with its provenance entry and cost record) and
    the session-lifetime cost totals, expressed in the public {!query}
    vocabulary so the cache's internal canonical key type never leaks.
    Keys canonicalize idempotently, so re-importing an exported entry
    reconstructs bit-identical cache keys. *)

type export_entry = {
  x_query : query;  (** the key, re-canonicalized on import *)
  x_verdict : bool;
  x_prov : prov_entry option;
  x_cost : cost option;  (** absent for a re-stored consistency bit *)
}

val export_entries : t -> export_entry list
(** Every cached verdict in recency order, {e least} recently used
    first, so replaying the list through {!import_entries} reproduces
    the same LRU structure. *)

val import_entries : t -> export_entry list -> int
(** Warm the cache with previously exported entries: each is stored as
    one record (subject to this oracle's capacity — overflow evicts the
    oldest imports) and its provenance re-posted into the dependency
    indexes, so selective invalidation by later deltas remains sound; an
    entry over a resident key replaces its record and group.  Imported
    verdicts do not count as tableau calls.  Returns the cache size after
    the import.

    Soundness is the {e caller}'s contract: entries must have been
    exported from an oracle over an identical KB ({!Dl_store} validates
    this before importing). *)

val import_totals : t -> cost_totals -> unit
(** Fold saved session totals into this oracle's accumulator, so a
    re-warmed session continues the saved session's work history. *)

val cache_stats : t -> Verdict_cache.stats
(** The live cache counters: hits, misses, evictions, size and
    capacity. *)

val restore_cache_stats : t -> Verdict_cache.stats -> unit
(** Overwrite the cache's hit/miss/eviction counters with saved ones
    (size/capacity fields are ignored). *)

(** {1 Incremental update}

    {!apply} edits the KB in place and selectively invalidates cached
    verdicts through a provenance-keyed dependency index (individual and
    atomic-concept symbol -> the provenance groups mentioning it -> their
    resident verdicts).  A verdict survives a delta when its recorded
    dependency set avoids every symbol the delta can reach:

    - ABox adds/retracts evict the verdicts whose provenance meets the
      {e connected component} (over told role assertions, Same/Different
      links and nominal references) of the delta's individuals — in a
      nominal-free TBox, tableau forests for disjoint components never
      interact, so untouched-component verdicts are bitwise identical.
    - An absorbable TBox addition ([A ⊑ C] with atomic LHS) evicts the
      verdicts whose provenance mentions [A]; any other TBox axiom (GCI,
      negatively absorbed [¬A ⊑ C], role inclusion, transitivity) forces
      a full flush.  So does an [A ⊑ C] whose [A] the pre-delta KB
      absorbs negatively ({!Tableau.absorbable_lhs}): [A] was true at
      every node not labelled [¬A], which no provenance records.
    - The global {!Consistent} verdict is always evicted, and if its value
      flips across the delta everything else is flushed too — an
      (in)consistency transition re-decides every entailment at once.
    - Nominals disable locality in both directions: a TBox addition that
      mentions a nominal always flushes (even absorbable — its body names
      an individual and can merge disjoint components without touching the
      ABox), and ABox deltas flush whenever the pre-existing classical
      TBox mentions a nominal (the disjoint-component argument breaks). *)

type apply_stats = {
  evicted : int;  (** cache entries dropped by this delta *)
  retained : int;  (** cache entries that survived *)
  flushed : bool;  (** did the delta force a full flush? *)
  consistency_flipped : bool;
      (** did [K̄]'s satisfiability change across the delta? *)
  recheck_calls : int;
      (** tableau calls paid inside [apply] itself (the pre/post
          consistency probes; at most 2, fewer when cached) *)
}

val apply : t -> Delta.t -> apply_stats
(** Apply a delta in place: updates the four-valued KB, pushes the delta
    through the axiom-local incremental transform into [K̄] and the
    reasoner's prepared state, rebuilds the completion engine, and
    invalidates exactly the cached verdicts the delta can affect.
    Subsequent queries answer against the updated KB; retained verdicts
    are served without new tableau calls.
    @raise Tableau.Resource_limit if a consistency probe or the
    completion-engine rebuild exceeds its budget.  The delta is then not
    applied: [apply] runs under {!atomically}. *)

val atomically : t -> (unit -> 'a) -> 'a
(** [atomically t f] runs [f ()] as one update.  If [f] raises after an
    {!apply} inside it edited the KB, K, K̄, the reasoner's prepared
    state (with its cached consistency bit) and the completion engine go
    back to what they were when [f] began, every cached verdict is
    dropped and the exception is re-raised.  A failure before the first
    edit changes nothing.  The saved state is the old immutable values,
    so only the failure path pays. *)

val pp_apply_stats : Format.formatter -> apply_stats -> unit
