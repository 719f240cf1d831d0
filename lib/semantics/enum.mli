(** Exhaustive enumeration of (four-valued and classical) interpretations
    over small finite domains.

    This is the executable counterpart of "for every model of K" in the
    paper's examples: it regenerates the model lists of Examples 1–4
    (including Table 4) and serves as a slow oracle in differential tests of
    the tableau and of the transformation.

    Individuals are pinned to distinct domain elements (0, 1, …, in the order
    of the signature), matching how the paper's examples read their models;
    [extra] adds that many anonymous elements.  The number of interpretations
    is astronomically large for non-toy signatures — use [Seq.take] or
    find-first style consumption. *)

val subsets : 'a list -> 'a list Seq.t
(** All [2^n] subsets. *)

val interps4 :
  signature:Axiom.signature ->
  ?extra:int ->
  ?data_domain:Datatype.value list ->
  unit ->
  Interp4.t Seq.t
(** All four-valued interpretations of the signature over the pinned
    domain. *)

val interps4_space :
  signature:Axiom.signature ->
  ?extra:int ->
  ?data_domain:Datatype.value list ->
  unit ->
  int
(** The exponent [e] of the [4^e] interpretations {!interps4} walks:
    [|C|·n + |R|·n² + |U|·n·|D|] for [n] domain elements (the individuals
    plus [extra]), [C], [R] and [U] the signature's concepts, roles and
    data roles and [D] the data domain.  Each concept, role and data
    role takes a pair of subsets per element, pair or data pair. *)

val interps2 :
  signature:Axiom.signature ->
  ?extra:int ->
  ?data_domain:Datatype.value list ->
  unit ->
  Interp.t Seq.t

val models4 : ?extra:int -> Kb4.t -> Interp4.t Seq.t
(** Four-valued models of the KB among [interps4] (the data domain defaults
    to the data values occurring in the KB). *)

val models2 : ?extra:int -> Axiom.kb -> Interp.t Seq.t

val for_all_models4 : ?extra:int -> Kb4.t -> (Interp4.t -> bool) -> bool
(** Does the property hold in every enumerated four-valued model?  With the
    enumeration bound this is a sound refutation procedure and (on the
    paper's examples) an exact one. *)

val exists_model4 : ?extra:int -> Kb4.t -> bool
val exists_model2 : ?extra:int -> Axiom.kb -> bool

val kb_data_values : Axiom.abox_axiom list -> Datatype.value list
(** Data values asserted in an ABox (the default finite datatype domain). *)
