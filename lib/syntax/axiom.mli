(** Classical [SHOIN(D)] axioms and knowledge bases (Table 1, lower half).

    A knowledge base is a pair (TBox, ABox); role axioms (role inclusions and
    transitivity declarations, sometimes called the RBox) are kept in the
    TBox list, as in the paper's presentation. *)

type tbox_axiom =
  | Concept_sub of Concept.t * Concept.t   (** C₁ ⊑ C₂ *)
  | Role_sub of Role.t * Role.t            (** R₁ ⊑ R₂ *)
  | Data_role_sub of string * string       (** U₁ ⊑ U₂ *)
  | Transitive of string                   (** Trans(R) *)

type abox_axiom =
  | Instance_of of string * Concept.t              (** a : C *)
  | Role_assertion of string * Role.t * string     (** R(a, b) *)
  | Data_assertion of string * string * Datatype.value  (** U(a, v) *)
  | Same of string * string                        (** a = b *)
  | Different of string * string                   (** a ≠ b *)

type kb = { tbox : tbox_axiom list; abox : abox_axiom list }

val empty : kb
val make : tbox:tbox_axiom list -> abox:abox_axiom list -> kb
val union : kb -> kb -> kb

val remove_each : abox_axiom list -> abox_axiom list -> abox_axiom list
(** [remove_each axs abox] drops the first structurally equal occurrence
    of each of [axs] from [abox]; absent ones are ignored.  The one
    retraction both the four-valued KB ([Delta.apply_kb4]) and [K̄]
    ([Reasoner.apply_delta]) go through, so the two stay in Definition-7
    correspondence. *)

val size : kb -> int
(** Total number of axioms. *)

val concept_equiv : Concept.t -> Concept.t -> tbox_axiom list
(** C ≡ D as the pair of inclusions. *)

val disjoint : Concept.t -> Concept.t -> tbox_axiom
(** Disjointness as [C ⊑ ¬D]. *)

val compare_tbox_axiom : tbox_axiom -> tbox_axiom -> int
val compare_abox_axiom : abox_axiom -> abox_axiom -> int

val pp_tbox_axiom : Format.formatter -> tbox_axiom -> unit
val pp_abox_axiom : Format.formatter -> abox_axiom -> unit
val pp : Format.formatter -> kb -> unit

(** {1 Signature extraction} *)

type signature = {
  concepts : string list;
  roles : string list;
  data_roles : string list;
  individuals : string list;
}

val signature : kb -> signature
val signature_union : signature -> signature -> signature
val empty_signature : signature
