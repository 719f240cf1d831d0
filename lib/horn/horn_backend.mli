(** The Horn/EL completion engine as the oracle's second route.

    {!create} builds the engine when the routing choice and K̄'s fragment
    ({!Fragment.check}, scanned once, by {!Completion.create}) allow it;
    {!can_answer} narrows per query (a satisfiability probe must be
    {!Completion.sat_answerable}, an instance goal must be a
    {!Fragment.body_concept} image, a negative role query needs an inert
    role).  On everything it accepts, {!eval} agrees with
    [Backend_tableau.eval] — that equivalence is what the differential
    suite in [test/test_backend.ml] pins down. *)

val create : Backend.choice -> max_nodes:int -> Axiom.kb -> Completion.t option
(** The completion engine the routing choice asks for over K̄: [None]
    under [Tableau], and under [Auto] when K̄ is outside the fragment.
    [Horn] builds unconditionally.
    @raise Backend.Unsupported under [Horn] when K̄ is outside the
    fragment; the payload names the first offending axiom. *)

val can_answer : Completion.t -> Backend.query -> bool
(** Per-query capability: a syntactic check that never mutates.  A
    [true] here is a completeness claim for this query on this KB. *)

val eval : ?prov:Tableau.prov -> Completion.t -> Backend.query -> bool
(** Decide one query the engine {!can_answer}, bumping the [runs] cell
    of {!Completion.stats}.  When [prov] is given, the verdict records
    every individual and (demangled) atomic concept it depends on. *)
