(** TBox classification by told-subsumer seeding and DAG-pruned search,
    replacing the naive all-pairs subsumption loop.

    [run] computes, for every atomic concept, its full set of atomic
    subsumers under a subsumption oracle [test], but answers most pairs
    without consulting the oracle:

    - {e told seeding}: subsumptions syntactically present in the TBox
      (closed under reflexive-transitive closure) are taken as positives for
      free;
    - {e positive propagation}: once [a ⊑ b] is established, every known
      subsumer of [b] (told, or computed when [b] was classified earlier) is
      a subsumer of [a];
    - {e negative pruning}: candidates are visited top-down (told subsumers
      before their subsumees), so when [a ⋢ c] is settled, every candidate
      [b] with a told path [b ⊑ c] is refuted without a test.

    Preconditions for agreement with the naive loop: [test] must be a
    preorder (reflexive, transitive) and every [told] pair must be entailed
    by [test].  Both hold for DL subsumption with told axioms drawn from the
    same TBox. *)

type stats = {
  atoms : int;
  naive_tests : int;    (** the all-pairs baseline: [n * (n - 1)] oracle calls *)
  tableau_tests : int;  (** oracle calls actually made *)
  told_hits : int;      (** pairs answered by the told closure *)
  dag_hits : int;       (** pairs answered by propagation or pruning *)
}

val tableau_calls_saved : stats -> int
(** [naive_tests - tableau_tests]. *)

type t = {
  supers : (string * string list) list;
      (** for each atom (sorted), its sorted atomic subsumers, self excluded
          — the same shape and contents as the naive all-pairs loop *)
  stats : stats;
}

val run :
  atoms:string list ->
  told:(string * string) list ->
  test:(string -> string -> bool) ->
  t
(** [atoms] are deduplicated and sorted; [told] pairs mentioning unknown
    atoms are ignored.  Atoms are classified one by one in a top-down
    order of the told DAG (told subsumers first). *)

val supers_fn : t -> string -> string list
(** Lookup into {!t.supers} ([[]] for unknown atoms). *)

val taxonomy : (string * string list) list -> (string list * string list) list
(** Reduce a full subsumer map to a taxonomy: equivalence classes of atoms
    (each led by its canonical, first-in-order representative) paired with
    their {e direct} super-class representatives (transitive reduction). *)
