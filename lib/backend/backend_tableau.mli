(** The query → tableau-run mapping: each four-valued verdict is a
    classical (un)satisfiability question over K̄ per Definition 7.  The
    tableau decides every query shape, so it is the oracle's fallback
    route.

    Before it starts a run, [eval] asks the reasoner's witness, a
    verified finite model of K̄ ({!Reasoner.witness}), for the
    non-entailments it shows:
    - [Instance (a, C)] and [Not_instance (a, C)]: not entailed when the
      witness names [a] and satisfies the query assertion [¬C⁺(a)]
      (resp. [¬C⁻(a)]);
    - [Role_pos (a, r, b)]: not entailed when the witness names [a] and
      [b] and [(a, b)] is outside [r⁺] there;
    - [Role_neg (a, r, b)]: not entailed when the witness exists and
      [r⁼] is inert ({!Reasoner.role_inert}): then K̄ ∪ {[r⁼(a, b)]}
      is consistent iff K̄ is;
    - [Consistent]: true once any run on the prep was satisfiable
      ({!Reasoner.is_consistent}).
    Every other case, every entailment and [Concept_sat] is a run as
    before.  A verdict the witness decides costs no run, so its cost
    record reads 0 runs, and its provenance is the witness's. *)

val eval : ?prov:Tableau.prov -> Reasoner.t -> Backend.query -> bool
(** Decide one query on the reasoner's prepared K̄.  When [prov] is
    given, it records every individual and (demangled) atomic concept
    the deciding run touched, or the witness provenance. *)
