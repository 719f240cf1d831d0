(** Standard reasoning services for classical [SHOIN(D)] knowledge bases,
    reduced to KB satisfiability in the usual way (cf. §2.1 of the paper: OWL
    DL entailment reduces to [SHOIN(D)] KB (un)satisfiability).

    Each query runs the tableau on the KB plus the query assertions, but
    the query-independent work (absorption, role hierarchy,
    blocking-strategy signals, and the told ABox's saturation, done by
    the first run that needs it) is done once per KB as a cached
    {!Tableau.prep} and refreshed by {!apply_delta}. *)

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
    signals — and the cached consistency verdict is reset.  A delta of
    ABox additions only keeps the saturated told ABox, which the next
    run extends by the additions ({!Tableau.prep_add_abox}); a
    retraction or a TBox addition drops it, and the next run saturates
    the told ABox again. *)

val absorbable_lhs : t -> Axiom.tbox_axiom -> string option
(** {!Tableau.absorbable_lhs} on the current prepared state: the atom a
    TBox addition would only extend the unfolding of, if any. *)

type state
(** The prepared state with the cached consistency verdict.
    {!apply_delta} replaces both rather than editing them, so keeping
    one is enough to undo later deltas: the one part of a prep a run
    writes, its saturated told ABox, describes that prep's own KB, so a
    restored prep still answers its KB. *)

val state : t -> state

val restore : t -> state -> unit
(** Put back a {!state}, undoing every {!apply_delta} since it was
    taken.  The cumulative {!stats} are kept. *)

val stats : t -> Tableau.stats
(** Cumulative tableau statistics over all queries run so far. *)

val is_consistent : ?prov:Tableau.prov -> t -> bool
(** KB satisfiability (cached after the first call).  Passing [?prov]
    populates the accumulator with the run's touched individuals and
    concept names; with a cached verdict this forces a (deterministic)
    re-run so the provenance is still complete. *)

val consistent_with : ?prov:Tableau.prov -> t -> Axiom.abox_axiom list -> bool
(** Satisfiability of the KB together with extra assertions. *)

val find_model : t -> Interp.t option
(** A verified finite model of the KB, when the tableau's completion graph
    yields one (see {!Tableau.kb_model}). *)

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
