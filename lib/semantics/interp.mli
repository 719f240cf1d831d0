(** Finite two-valued interpretations of [SHOIN(D)] (Table 1 semantics).

    The checker works over an explicit finite object domain (integers) and an
    explicit finite slice of the datatype domain.  It is used as a slow,
    trustworthy oracle for the tableau reasoner on small inputs, and as the
    target of the classical induced interpretation of Definition 8. *)

module ESet : Set.S with type elt = int
(** Sets of domain elements. *)

module PSet : Set.S with type elt = int * int
(** Sets of role edges. *)

module VSet : Set.S with type elt = int * Datatype.value
(** Sets of data-role edges. *)

module SMap : Map.S with type key = string

type t = {
  domain : ESet.t;
  data_domain : Datatype.value list;
      (** the finite slice of Δᴰ the checker quantifies over *)
  concepts : ESet.t SMap.t;      (** atomic concept extensions *)
  roles : PSet.t SMap.t;         (** atomic role extensions *)
  data_roles : VSet.t SMap.t;
  individuals : int SMap.t;      (** aᴵ ∈ Δᴵ *)
}

val make :
  domain:ESet.t ->
  ?data_domain:Datatype.value list ->
  ?concepts:(string * int list) list ->
  ?roles:(string * (int * int) list) list ->
  ?data_roles:(string * (int * Datatype.value) list) list ->
  ?individuals:(string * int) list ->
  unit ->
  t

val concept_ext : t -> string -> ESet.t
val role_ext : t -> Role.t -> PSet.t
(** Extension of a possibly-inverse role ([Inv r] flips the pairs). *)

val data_role_ext : t -> string -> VSet.t
val individual : t -> string -> int
(** @raise Not_found if the interpretation does not name the individual. *)

val eval : t -> Concept.t -> ESet.t
(** The extension [Cᴵ] per Table 1. *)

val satisfies_tbox : t -> Axiom.tbox_axiom -> bool
val satisfies_abox : t -> Axiom.abox_axiom -> bool
val is_model : t -> Axiom.kb -> bool
(** False, not [Not_found], when the interpretation does not name an
    individual the KB mentions (in an assertion or a nominal). *)

val pp : Format.formatter -> t -> unit
