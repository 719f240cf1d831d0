(** Completion-style saturation for the Horn/EL fragment of K̄.

    A consequence-driven decision procedure in the EL completion-rule
    tradition (CEL/ELK): the KB is normalized into atom-level rules by
    conservative definitional extension (fresh atoms carry a [:] in
    their name, so they can never collide with surface identifiers and
    are skipped by provenance demangling), and a worklist saturates
    contexts — one per named individual (modulo [Same] merging), one
    canonical successor context per existential filler, one anonymous
    root (the fresh-individual / ⊤ context), plus memoized probe
    contexts for satisfiability queries.

    Derived [S]-sets are exact in the canonical (least) model: an atom
    is in [S(x)] iff the canonical model makes it true at [x], which is
    what makes entailment ([goal ∈ S(x)]), consistency ([⊥] at a named
    context), concept satisfiability ([⊥]-freeness of a probe) and role
    entailment (materialized-edge lookup; edges are closed under the
    told role hierarchy and transitivity) complete on eligible KBs.

    Termination and size are polynomial: atoms × contexts memberships
    and role-labelled edges are both finite and monotone.

    {b Provenance.}  Each query below takes an optional sink and
    records into it the region of its query contexts: every context
    reachable over out-edges, giving the reached named individuals and
    each member atom's {!Tableau.prov_atom_name} (interned once, with
    the atom).  One root for {!entails_instance} and each probe of
    {!concept_satisfiable}, two for {!role_edge}; {!consistent}, a role
    edge with an unknown endpoint and every verdict on an inconsistent
    K̄ record the named set (the anonymous root plus every individual
    context).  Regions are memoized: an epoch counter is bumped on every
    new context, edge and provenance-named membership, so a region
    walked at the current epoch is reused exactly and a verdict pays one
    {!Tableau.prov_union} per root.  The memo lives as long as [t]. *)

type t

val create : max_nodes:int -> Axiom.kb -> t
(** Normalize and saturate K̄.
    @raise Backend.Unsupported when [kb] fails {!Fragment.check}.
    @raise Tableau.Resource_limit when saturation needs more than
    [max_nodes] contexts. *)

val consistent : ?prov:Tableau.prov -> t -> bool

val entails_instance : ?prov:Tableau.prov -> t -> string -> Concept.t -> bool
(** [entails_instance t a c] — does K̄ entail [c(a)]?  [c] is a
    classical concept over K̄'s vocabulary in the {!Fragment.body_concept}
    shape; [a] may be unknown (it then behaves as a fresh individual).
    True outright on an inconsistent K̄. *)

val sat_answerable : Concept.t -> bool
(** Can {!concept_satisfiable} decide this (classical, arbitrary) query
    concept?  True when its NNF splits into at most a bounded number of
    disjunctive branches whose literals are positive-EL concepts or
    negated atoms. *)

val concept_satisfiable : ?prov:Tableau.prov -> t -> Concept.t -> bool
(** Precondition: {!sat_answerable}.  Decides satisfiability of the
    concept w.r.t. K̄ exactly like the tableau's fresh-individual
    encoding: false on an inconsistent K̄; otherwise true iff some
    branch's probe context stays ⊥-free and avoids every negated atom
    (least-model exactness makes the membership test complete). *)

val role_edge : ?prov:Tableau.prov -> t -> string -> string -> string -> bool
(** [role_edge t a r b] — does K̄ entail [r(a, b)] ([r] a K̄ role name)?
    Complete because entailed named-to-named edges are exactly the told
    edges closed under [Same], the role hierarchy and transitivity (the
    canonical model adds no others).  True outright on inconsistent K̄. *)

val role_inert : t -> string -> bool
(** Is asserting a fresh [r]-edge between named individuals incapable of
    driving any inference?  Holds when no super-role of [r] (told
    hierarchy, reflexive) occurs in a left-hand existential or is
    transitive — then K̄ ∪ [r(a,b)] is consistent iff K̄ is, which is how
    the backend answers [Role_neg]. *)

val stats : t -> Tableau.stats
(** Live work cells in the tableau vocabulary: [nodes_created] counts
    contexts, [merges] counts [Same]-unions, [clashes] counts ⊥
    derivations.  [runs] is bumped by the backend per [eval]. *)
