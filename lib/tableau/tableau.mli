(** Tableau decision procedure for [SHOIN(D)] knowledge-base satisfiability.

    A from-scratch completion-graph tableau in the style of Horrocks &
    Sattler's algorithms for the SH* family:

    - negation normal form on entry; lazy unfolding of absorbed axioms,
      remaining GCIs internalized as disjunctions added to every node.
      An axiom whose left side has an atomic conjunct [A] unfolds when [A]
      enters a node's label; otherwise one whose NNF left side has a
      conjunct [¬A] unfolds when [¬A] does, provided no axiom unfolds on
      [A] itself (a name is absorbed one way only, decided over the whole
      TBox: Horrocks & Tobies, KR 2000).  Model extraction reads a
      negatively absorbed name as true at every node whose label lacks
      its negation;
    - role hierarchies (closed under inverses) and transitive roles with the
      ∀₊ propagation rule;
    - inverse roles with {e pairwise} ancestor blocking;
    - unqualified number restrictions with distinctness constraints, merging
      (with pruning) and (n+1)-clique clash detection;
    - nominals by merging into named root nodes (negated nominals as
      distinctness constraints);
    - datatypes via the local per-node solver in {!Datacheck};
    - ABox reasoning: individuals are root nodes; [=]/[≠] become merges and
      distinctness constraints.

    Completeness envelope: complete for [SHIN(D)] and for nominals that
    interact with inverses/number restrictions only through merging (no
    NN-rule: the full [SHOIN] corner published after the reproduced paper is
    out of scope — see DESIGN.md).  Number restrictions are expected to use
    simple roles (no transitive subroles), the standard [SHOIN] restriction;
    {!Reasoner.validate} reports violations.

    A run starts from its KB's {e base}, the told ABox saturated once by
    the deterministic rules (see {!prep}), adds the query's assertions,
    and explores the nondeterminism by chronological backtracking over
    immutable states.  Both budgets are per run: [max_nodes] bounds the
    run's completion graph, base included, and [max_branches] the
    alternatives the run explores (counted from the [stats] cells' value
    when the run starts, so cells shared across runs do not carry one
    run's branches into the next); {!Resource_limit} is raised when
    either is exceeded, and by a run whose [max_nodes] the base alone
    exceeds, as it would have been building it. *)

exception Resource_limit of string

val rule_names : string array
(** The expansion-rule kinds, in the index order used by
    [stats.rule_firings], the ["tableau.rule.<name>"] registry counters
    and the flight recorder's ["rule.<name>"] event kinds. *)

val clash_names : string array
(** The clash causes, in the index order used by [stats.clash_causes],
    the ["tableau.clash.<cause>"] registry counters and the flight
    recorder's ["clash.<cause>"] event kinds. *)

type stats = {
  mutable runs : int;  (** tableau runs started *)
  mutable branches_explored : int;
  mutable nodes_created : int;
  mutable merges : int;
  mutable clashes : int;
      (** all causes; the Horn backend bumps it without a cause *)
  mutable backtracks : int;
  mutable blocking_events : int;
  rule_firings : int array;  (** indexed like {!rule_names} *)
  clash_causes : int array;  (** indexed like {!clash_names} *)
}
(** The one record of tableau work.  Each hook site of a run is one
    call that bumps its cell, unconditionally (a clash bumps [clashes]
    and its cause), and records one flight event when {!Flight.on}.
    Everything else is derived from these cells: the oracle's
    per-verdict cost records and session totals hold diffs and sums of
    them, snapshots persist them, and the ["tableau.*"] registry
    counters are folded from a run's diff once, when the run ends with
    its span live — so a disarmed run pays for nothing but the cells.
    Building or extending a prep's base is work of the run that needs it
    first: it counts in that run's cells ([nodes_created] for the told
    individuals among them), and the runs after it count only their
    own. *)

type prov
(** Per-run provenance accumulator — the dependency set of a verdict, fed
    to the oracle's selective cache invalidation (and span attributes).

    {b Individuals} are recorded {e selectively}: a named individual
    enters the provenance only when a rule fired on its node, it took part
    in a merge or a distinctness constraint, or its node clashed.  Told
    assertions that never interact with the query record nothing — the
    eviction side covers those through the told ABox's connected-component
    closure, so small provenance directly translates into more retained
    verdicts.

    {b Atoms} are recorded {e coarsely}: every top-level (possibly
    negated) atomic concept of every touched node's label, demangled to
    the user-level name.  TBox-delta retention relies on "this atom never
    appeared in any label during the run", so the atom harvest must cover
    all labels, including branches that were later backtracked.

    Fresh query artefacts (names containing [':'], e.g. [q:fresh]) are
    excluded, so runs over reduced KBs report only user-level names.

    {b The base.}  A run adds to its sink what building its prep's base
    harvested, then harvests its own passes.  That is a superset of what
    one pass over the told ABox and the query together records: the
    nodes on which a rule fired in the base pass or in the query's pass
    include those on which one fired in the combined pass, and a name
    an asserted [a = b] brings onto a node is recorded at the merge, so
    it is not lost when no rule fires there again; the atom harvest is
    equal, since a node the query's pass does not touch keeps the label
    the base harvested; and every later pass runs on the same state.
    When the told ABox clashes by itself the run records the base's
    harvest only: K̄ is then inconsistent, and the oracle's
    consistency-transition guard decides what a delta retains. *)

val fresh_prov : unit -> prov

val prov_individuals : prov -> string list
(** Sorted, deduplicated. *)

val prov_concepts : prov -> string list
(** Sorted, deduplicated. *)

val prov_add_ind : prov -> string -> unit
(** Manually record an individual (names containing [':'] are ignored).
    Used by the oracle to seed a verdict's provenance with the query's own
    subjects before the run. *)

val prov_atom_name : string -> string option
(** The user-level name an atomic concept of K̄ is recorded under:
    [A⁺] and [A⁻] give [A], other names give themselves, and plain names
    containing [':'] (fresh query and definitional artefacts) give
    [None].  The one demangling rule: {!prov_add_atom} applies it, and
    the completion engine applies it once per atom when it interns the
    atom. *)

val prov_add_atom : prov -> string -> unit
(** Manually record an atomic concept under its {!prov_atom_name}
    (nothing when that is [None]). *)

val prov_add_concept : prov -> string -> unit
(** Record a name {!prov_atom_name} already produced, as is (re-applying
    the rule is not the identity: an OWL local name may itself end in
    [-] or contain [':']). *)

val prov_union : into:prov -> prov -> unit
(** [prov_union ~into p] adds every individual and concept of [p] to
    [into] — a set union of both halves; [p] is unchanged.  How the
    completion engine hands a memoized region to a verdict's sink
    without re-adding its names one by one. *)

(** {1 Prepared (cached) preprocessing}

    Absorption, GCI internalization, the role hierarchy and the
    blocking-strategy signals depend only on the KB, not on the query —
    a {!prep} computes them once so repeated tableau runs (every verdict
    of a reasoning session) stop paying them.  An ABox delta refreshes
    only the ABox signals; a TBox delta prepares the TBox again.

    A prep also keeps its {e base}: the state the deterministic,
    non-generating rules reach from the told ABox (K̄'s ABox without a
    query's assertions), checked clash-free, or the fact that it
    clashes.  The first run that needs it builds it; every run then
    starts from it and adds only its query's assertions.  This is exact:
    saturation reads the TBox preprocessing only, never the blocking
    strategy or the query, so the base depends on the prep alone;
    saturating the base and then the query's assertions reaches the
    state one pass over both would (the rules have one fixpoint, and the
    told individuals keep their node ids), so the search branches in the
    same order (a node the base makes for a nominal [{o}] no told
    assertion names comes before the query's individuals, which can
    reorder branching but not change an answer); and a run checks for
    clashes only the nodes its own passes touch, which suffices because
    the base is clash-free and a node the query never touches keeps its
    base label (an asserted [a ≠ b] touches the neighbours of both,
    whose ≤-restrictions it can close).  A prep with no base built
    (every verdict routed to the completion engine, say) never builds
    one. *)

type prep

val prepare : Axiom.kb -> prep
(** A prep with no base built. *)

val prep_kb : prep -> Axiom.kb

val prep_with_abox : prep -> Axiom.abox_axiom list -> prep
(** Replace the told ABox (rescans only the ABox blocking signals; all
    TBox preprocessing is reused).  The new prep has no base. *)

val prep_add_abox : prep -> Axiom.abox_axiom list -> prep
(** Append ABox additions: scans the blocking signals of the additions
    only, and keeps a built base, which the next run extends by the
    additions alone.  A prep with no base built keeps none. *)

val prep_add_tbox : prep -> Axiom.tbox_axiom list -> prep
(** Append monotone TBox additions: {!prepare} over the concatenated
    TBox, since an addition that gives a negatively absorbed name a
    positive rule changes the direction of that name.  The new prep has
    no base. *)

val absorbable_lhs : prep -> Axiom.tbox_axiom -> string option
(** The atomic left-hand side under which {!prep_add_tbox} would absorb
    this axiom positively into [prep], or [None] if it would be
    internalized as a GCI, absorbed negatively, or is a role axiom.
    [None] too when the axiom gives a name [prep] absorbs negatively a
    positive rule: that name was true at every node not labelled with its
    negation, so no run's labels record what the new rule changes.  The
    invalidation layer uses this exact test to decide whether a TBox
    addition is local to one atom. *)

type graph
(** A complete, clash-free completion graph: what a satisfiable run
    leaves behind, with the KB it ran on (its query's assertions
    included).  Immutable. *)

val prepared_run :
  ?max_nodes:int -> ?max_branches:int -> ?stats:stats -> ?prov:prov ->
  prep -> Axiom.abox_axiom list -> graph option
(** [prepared_run prep extra] decides satisfiability of the prepared KB
    extended with the [extra] ABox assertions (the query), handing back
    the run's complete graph when it is satisfiable.  Equivalent to
    {!kb_satisfiable} on the merged KB, without re-running
    preprocessing or re-saturating the told ABox: the run starts from
    [prep]'s base, building or extending it first when it has to (a
    trip meanwhile leaves [prep] as it was), and answers unsat at once
    when the base clashes.  Blocking signals of [extra] are scanned per
    call and joined with the cached ones, so the strategy choice is
    identical.
    @raise Resource_limit as {!kb_satisfiable}. *)

val graph_model : graph -> Interp.t option
(** The finite model a graph gives, read as {!kb_model} reads it and
    {e verified} with {!Interp.is_model} against the graph's KB, query
    included.  [None] when the candidate fails verification (the [SHIN]
    family lacks the finite model property).  Reading touches no stats
    cell and no provenance sink. *)

val role_inert : prep -> Role.t -> bool
(** No super-role of the role, itself included, occurs in either
    direction in a concept of the prep's KB, TBox or told ABox, and none
    is transitive.  Then [K ∪ {R(a, b)}] is satisfiable iff [K] is: a model
    of [K] with the edge added, and closed upwards, is still one. *)

val kb_satisfiable :
  ?max_nodes:int -> ?max_branches:int -> ?stats:stats -> ?prov:prov ->
  Axiom.kb -> bool
(** Decides satisfiability of the knowledge base.
    @raise Resource_limit if the completion graph exceeds [max_nodes]
    (default 20_000) or this run's search explores more than
    [max_branches] alternatives (default unlimited; chronological
    backtracking is worst-case exponential). *)

val kb_model :
  ?max_nodes:int -> ?max_branches:int -> ?stats:stats -> ?prov:prov ->
  Axiom.kb -> Interp.t option
(** Extract a finite model from an open tableau branch: blocked branches
    are tied back to their blocking witnesses, role extensions are closed
    under the hierarchy and declared transitivity, datatype successors come
    from the concrete-domain solver's witnesses.  The result is {e
    verified} with {!Interp.is_model} before being returned, so [Some i]
    really is a model.  [None] means the KB is unsatisfiable {e or} no
    finite model could be constructed this way (the [SHIN] family lacks the
    finite model property).
    @raise Resource_limit as {!kb_satisfiable}. *)

val fresh_stats : unit -> stats

val copy_stats : stats -> stats
(** A snapshot (deep copy, including both arrays) — the "before" half
    of a per-run diff. *)

val diff_stats : stats -> stats -> stats
(** [diff_stats s0 s1] is [s1 - s0], cell by cell: the work done between
    the two snapshots. *)

val add_stats : into:stats -> stats -> unit
(** Add every cell of the second record into [into]. *)

val rule_counts : stats -> (string * int) list
(** The non-zero rule firings as [(rule name, count)], in
    {!rule_names} order. *)

val named_counts : stats -> (string * int) list
(** The named cells as pairs: the non-zero rule firings
    ({!rule_counts}), then the non-zero clash causes under
    ["clash.<cause>"] names, each in index order.  The seven scalar
    cells are not included. *)

val add_named : stats -> string * int -> unit
(** Add one pair of the {!named_counts} shape into its cell.  Names this
    build does not know are dropped. *)
