(** [SHOIN(D)4] knowledge bases (§3.1, Table 3).

    Fact (ABox) axioms are exactly those of [SHOIN(D)] ({!Axiom.abox_axiom}).
    TBox axioms come in the paper's three exactness grades, for concepts and
    for object/datatype roles:

    - {e material} inclusion [C ↦ D] — "generally, Cs are Ds" (allows
      exceptions);
    - {e internal} inclusion [C ⊏ D] — every told-C is told-D;
    - {e strong} inclusion [C → D] — additionally, every told-not-D is
      told-not-C (contraposition). *)

type inclusion =
  | Material  (** ↦ *)
  | Internal  (** ⊏ *)
  | Strong    (** → *)

val all_inclusions : inclusion list
val pp_inclusion : Format.formatter -> inclusion -> unit
val inclusion_symbol : inclusion -> string

type tbox_axiom =
  | Concept_inclusion of inclusion * Concept.t * Concept.t
  | Role_inclusion of inclusion * Role.t * Role.t
  | Data_role_inclusion of inclusion * string * string
  | Transitive of string

type t = { tbox : tbox_axiom list; abox : Axiom.abox_axiom list }

val empty : t
val make : tbox:tbox_axiom list -> abox:Axiom.abox_axiom list -> t
val union : t -> t -> t
val size : t -> int

val of_classical : ?inclusion:inclusion -> Axiom.kb -> t
(** Reads a classical KB as a four-valued one, mapping every ⊑ to the given
    inclusion kind (default [Internal], the kind whose satisfaction mirrors
    the positive-part of classical ⊑). *)

val signature : t -> Axiom.signature

val compare_tbox_axiom : tbox_axiom -> tbox_axiom -> int
val pp_tbox_axiom : Format.formatter -> tbox_axiom -> unit
val pp : Format.formatter -> t -> unit
