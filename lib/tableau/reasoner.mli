(** Standard reasoning services for classical [SHOIN(D)] knowledge bases,
    reduced to KB satisfiability in the usual way (cf. §2.1 of the paper: OWL
    DL entailment reduces to [SHOIN(D)] KB (un)satisfiability).

    Each query runs the tableau on the KB plus the query assertions, but
    the query-independent work (absorption, role hierarchy,
    blocking-strategy signals, and the told ABox's saturation, done by
    the first run that needs it) is done once per KB as a cached
    {!Tableau.prep} and refreshed by {!apply_delta}.

    {b The witness.}  A reasoner keeps one finite model of K̄ per prep:
    the first satisfiable run on the prep leaves its complete graph
    behind (with the run's provenance), and the first query or delta
    that needs the model reads it with {!Tableau.graph_model}, which
    verifies it with {!Interp.is_model} against K̄ plus that run's
    query assertions.  One attempt per prep: a candidate that fails
    verification leaves no witness until the next delta, a run that
    trips leaves no graph, and no run is made only to get one.  A
    non-entailment the witness shows is the classical tableau's model
    caching (Horrocks 1997): when [K ∪ {¬Q}] has a model, [K ⊭ Q], and
    a model of K̄ that satisfies [¬Q] is one.  {!Backend_tableau.eval}
    asks it through {!witness_holds} before it starts a run.

    {b Provenance.}  A verdict the witness decides records the witness
    provenance: the run's, plus every atom whose extension in the
    witness is non-empty.  With the query's own symbols, which the
    oracle seeds, that is enough for the oracle's selective
    invalidation:
    - an ABox delta evicts a verdict whose individuals meet the delta's
      told components; the seeded individuals are in the verdict, and
      the other components cannot make it an entailment, since a
      disjoint union of a model of the seeded part with one of the rest
      is still a model (the consistency-flip guard covers the rest
      being inconsistent, and the nominal guard the KBs where the
      argument fails);
    - an absorbable TBox addition [A ⊑ E] keeps a verdict only when [A]
      is not among its atoms, so [A]'s extension in the witness is
      empty and the witness still models K̄ ∪ {[A ⊑ E]}.

    {b Deltas.}  A retraction keeps the witness (it only removes
    constraints).  An addition keeps it when each added assertion is an
    atomic concept assertion on an individual the witness names: those
    are patched into the model, and the result is kept only when
    {!Interp.is_model} accepts it against the new K̄ (unchecked when
    every assertion already held and no TBox axiom came).  An added
    axiom that names an individual the witness does not interpret, as
    [A ⊑ {c}] can, fails that check.  Any other addition drops it.
    The cached consistency verdict follows: a witness, or a
    satisfiable run, is a consistent K̄.  The witness is never edited
    in place and {!state} includes it, so rollbacks keep working; it
    is not persisted. *)

type t

val create : ?max_nodes:int -> ?max_branches:int -> Axiom.kb -> t

val kb : t -> Axiom.kb

val apply_delta :
  t ->
  add_abox:Axiom.abox_axiom list ->
  retract_abox:Axiom.abox_axiom list ->
  add_tbox:Axiom.tbox_axiom list ->
  unit
(** Update the KB in place: retractions remove the first structurally
    equal occurrence each (absent retractions are ignored), additions are
    appended.  The cached preprocessing is refreshed — TBox additions
    prepare the whole TBox again, since one can change the direction a
    name is absorbed in; ABox changes only rescan the ABox blocking
    signals.  A delta of ABox additions only keeps the saturated told
    ABox, which the next run extends by the additions
    ({!Tableau.prep_add_abox}); a retraction or a TBox addition drops
    it, and the next run saturates the told ABox again.  The witness is
    kept, patched or dropped as the header says; without one the cached
    consistency verdict is reset, except that a retraction keeps a
    consistent one. *)

val absorbable_lhs : t -> Axiom.tbox_axiom -> string option
(** {!Tableau.absorbable_lhs} on the current prepared state: the atom a
    TBox addition would only extend the unfolding of, if any. *)

type state
(** The prepared state with what its runs have shown: the consistency
    verdict and the witness.  {!apply_delta} replaces both rather than
    editing them, so keeping one is enough to undo later deltas: the one
    part of a prep a run writes, its saturated told ABox, describes that
    prep's own KB, so a restored prep still answers its KB. *)

val state : t -> state

val restore : t -> state -> unit
(** Put back a {!state}, undoing every {!apply_delta} since it was
    taken.  The cumulative {!stats} are kept. *)

val stats : t -> Tableau.stats
(** Cumulative tableau statistics over all queries run so far. *)

val is_consistent : ?prov:Tableau.prov -> t -> bool
(** KB satisfiability.  True at once when a run on this prep was
    satisfiable (no extraction needed), false when a run of K̄ alone
    clashed; else one run of K̄ alone.  Passing [?prov] adds the
    provenance of the run that decided it. *)

val consistent_with : ?prov:Tableau.prov -> t -> Axiom.abox_axiom list -> bool
(** Satisfiability of the KB together with extra assertions: always a
    run. *)

val witness : t -> Interp.t option
(** The witness, reading the graph first when it has not been read: a
    verified finite model of the current K̄. *)

val witness_holds : ?prov:Tableau.prov -> t -> (Interp.t -> bool) -> bool
(** [witness_holds t p] is true when there is a {!witness} [w] and
    [p w] holds; [?prov] then receives the witness provenance.  [p w]
    raising [Not_found], as {!Interp} does on an individual [w] does
    not name, counts as false.  False says nothing.  No run is made. *)

val role_inert : t -> Role.t -> bool
(** {!Tableau.role_inert} on the current prep: when it holds, K̄ plus an
    assertion of the role is satisfiable iff K̄ is. *)

val find_model : t -> Interp.t option
(** A verified finite model of the KB, when the tableau's completion graph
    of a run of K̄ alone yields one (see {!Tableau.kb_model}).  Always a
    run, not the witness: the witness also interprets the names of the
    query that made it. *)

val concept_satisfiable : ?prov:Tableau.prov -> t -> Concept.t -> bool
(** Is [C] satisfiable w.r.t. the KB (i.e. is [K ∪ {C(fresh)}]
    satisfiable)? *)

val subsumes : t -> Concept.t -> Concept.t -> bool
(** [subsumes t c d] iff [K ⊨ C ⊑ D], i.e. [C ⊓ ¬D] is unsatisfiable
    w.r.t. [K]. *)

val equivalent : t -> Concept.t -> Concept.t -> bool

val instance_of : t -> string -> Concept.t -> bool
(** [instance_of t a c] iff [K ⊨ C(a)], i.e. [K ∪ {¬C(a)}] is
    unsatisfiable.  In an inconsistent KB every instance check holds — the
    triviality the paper sets out to repair. *)

val role_entailed : ?prov:Tableau.prov -> t -> string -> Role.t -> string -> bool
(** [K ⊨ R(a,b)], decided with a fresh marker concept:
    [K ∪ {b : X, a : ∀R.¬X}] is unsatisfiable. *)

val same_entailed : t -> string -> string -> bool
val different_entailed : t -> string -> string -> bool

val classify : t -> (string * string list) list
(** For each atomic concept of the KB's signature, its atomic subsumers
    (excluding itself unless equivalent). Brute-force pairwise subsumption. *)

val validate : t -> string list
(** Static well-formedness warnings, e.g. number restrictions over
    non-simple (transitive) roles, which fall outside the decidable
    fragment. *)
