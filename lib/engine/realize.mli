(** ABox realization: for every individual, its Belnap truth value on every
    atomic concept and its most-specific atomic types, with positive
    instance checks pruned through a classified hierarchy.

    Pruning is sound for the positive dimension because told-positive
    instance information travels {e up} internal inclusions: if [D ⊑ C] and
    [a ∉ C] is settled, then [a ∉ D] for every subsumee [D] of [C] without a
    tableau call.  The negative dimension ([¬C(a)] support) does not
    contrapose along internal inclusions, so it is checked directly, one
    call per (individual, atom) pair. *)

type stats = {
  individuals : int;
  atoms : int;
  naive_checks : int;     (** the baseline: [2 * individuals * atoms] *)
  positive_checks : int;  (** positive oracle calls actually made *)
  negative_checks : int;
  pruned : int;           (** positive checks answered through the hierarchy *)
}

type entry = {
  name : string;
  types : (string * Truth.t) list;
      (** Belnap value for every atom of the signature, in atom order *)
  most_specific : string list;
      (** told-positive atoms with no told-positive strict subsumee;
          members of one lowest equivalence class all appear *)
}

type t = { entries : entry list; stats : stats }

val run :
  individuals:string list ->
  atoms:string list ->
  supers:(string -> string list) ->
  check_pos:(string -> string -> bool) ->
  check_neg:(string -> string -> bool) ->
  t
(** [supers] is the classified full-subsumer map (e.g. {!Classify.supers_fn});
    [check_pos a c] decides positive instance support for [c(a)], [check_neg]
    negative support.  [supers] must be sound and complete for [check_pos]
    monotonicity: [c ∈ supers d] must imply [check_pos a d ⇒ check_pos a c].
    Individuals are realized one by one, in sorted order. *)
