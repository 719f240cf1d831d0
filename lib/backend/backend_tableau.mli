(** The query → tableau-run mapping: each four-valued verdict is a
    classical (un)satisfiability question over K̄ per Definition 7.  The
    tableau decides every query shape, so it is the oracle's fallback
    route. *)

val eval : ?prov:Tableau.prov -> Reasoner.t -> Backend.query -> bool
(** Decide one query on the reasoner's prepared K̄.  When [prov] is
    given, the run records every individual and (demangled) atomic
    concept it touches. *)
