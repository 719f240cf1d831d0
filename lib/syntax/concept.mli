(** [SHOIN(D)] / [SHOIN(D)4] concept expressions (Table 1 / Table 2 syntax).

    The concept language is shared between the two logics — the paper's
    [SHOIN(D)4] keeps all constructors of [SHOIN(D)] and changes only the
    semantics and the inclusion axioms. *)

type t =
  | Top                                  (** ⊤ *)
  | Bottom                               (** ⊥ *)
  | Atom of string                       (** atomic concept [A] *)
  | Not of t                             (** ¬C *)
  | And of t * t                         (** C ⊓ D *)
  | Or of t * t                          (** C ⊔ D *)
  | One_of of string list                (** {o₁, …} — nominals *)
  | Exists of Role.t * t                 (** ∃R.C *)
  | Forall of Role.t * t                 (** ∀R.C *)
  | At_least of int * Role.t             (** ≥ n.R (unqualified) *)
  | At_most of int * Role.t              (** ≤ n.R (unqualified) *)
  | Data_exists of string * Datatype.t   (** ∃U.D *)
  | Data_forall of string * Datatype.t   (** ∀U.D *)
  | Data_at_least of int * string        (** ≥ n.U *)
  | Data_at_most of int * string         (** ≤ n.U *)

val compare : t -> t -> int
val equal : t -> t -> bool

(** {1 Smart constructors} *)

val conj : t list -> t
(** Right-nested conjunction; [conj [] = Top], identities for [Top] and
    short-circuit on [Bottom]. *)

val disj : t list -> t
(** Right-nested disjunction; [disj [] = Bottom]. *)

val neg : t -> t
(** Logical negation with double-negation elimination (¬¬C = C, Prop. 4). *)

(** {1 Normal forms and measures} *)

val nnf : t -> t
(** Negation normal form: negation pushed to atomic concepts, nominals and
    datatypes, using the dualities of Proposition 4.  [¬≥n.R] becomes
    [≤(n-1).R] (or [⊥] when [n = 0]); [¬≤n.R] becomes [≥(n+1).R]. *)

val is_nnf : t -> bool

val canon : t -> t
(** Canonical NNF, the query-key normal form of the engine layer: {!nnf}
    followed by flattening of [And]/[Or] chains into sorted, duplicate-free
    right-nested spines (absorbing [Top]/[Bottom] units), and sorting of
    nominal lists.  Commuted, reassociated and duplicated conjunctions or
    disjunctions of the same concept all map to one representative, so
    structural equality on canonical forms is a sound (not complete)
    approximation of semantic equivalence. *)

val hash : t -> int
(** Structural hash, compatible with {!equal}. *)

val size : t -> int
(** Number of AST nodes. *)

val depth : t -> int
(** Maximal nesting depth of role restrictions (quantifier depth). *)

val subconcepts : t -> t list
(** All subconcepts, including the concept itself (no duplicates). *)

(** {1 Signature} *)

val atom_names : t -> string list
val role_names : t -> string list
val data_role_names : t -> string list
val individual_names : t -> string list

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
(** DL-style: [A ⊓ ∃R.B], using ASCII-safe operators
    ([&], [|], [~], [some], [only], [>=], [<=]). *)

val pp_atomic : Format.formatter -> t -> unit
(** Like {!pp} but parenthesizes non-atomic concepts, for embedding. *)

val to_string : t -> string
(** The {!pp} rendering.  [Top], [Bottom] and atoms are returned
    directly, without a [Format] round trip. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
