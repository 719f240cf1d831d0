type sign = T | NT | F | NF

module Lit = struct
  type t = sign * string

  let compare (s1, a1) (s2, a2) =
    let tag = function T -> 0 | NT -> 1 | F -> 2 | NF -> 3 in
    let c = String.compare a1 a2 in
    if c <> 0 then c else Int.compare (tag s1) (tag s2)
end

module LSet = Set.Make (Lit)

module Signed = struct
  type t = sign * Prop4.formula

  let compare = Stdlib.compare
end

module SSet = Set.Make (Signed)

(* Expansion of a signed compound formula into branches of signed
   subformulas.  The derived connectives are rewritten to their
   definitions; ⊃ gets native rules. *)
let expand sgn (f : Prop4.formula) : (sign * Prop4.formula) list list =
  match (sgn, f) with
  | T, Neg a -> [ [ (F, a) ] ]
  | NT, Neg a -> [ [ (NF, a) ] ]
  | F, Neg a -> [ [ (T, a) ] ]
  | NF, Neg a -> [ [ (NT, a) ] ]
  | T, And (a, b) -> [ [ (T, a); (T, b) ] ]
  | NT, And (a, b) -> [ [ (NT, a) ]; [ (NT, b) ] ]
  | F, And (a, b) -> [ [ (F, a) ]; [ (F, b) ] ]
  | NF, And (a, b) -> [ [ (NF, a); (NF, b) ] ]
  | T, Or (a, b) -> [ [ (T, a) ]; [ (T, b) ] ]
  | NT, Or (a, b) -> [ [ (NT, a); (NT, b) ] ]
  | F, Or (a, b) -> [ [ (F, a); (F, b) ] ]
  | NF, Or (a, b) -> [ [ (NF, a) ]; [ (NF, b) ] ]
  (* φ ↦ ψ  ≝  ¬φ ∨ ψ *)
  | s, Material (a, b) -> [ [ (s, Prop4.Or (Prop4.Neg a, b)) ] ]
  (* internal implication: value is ψ when φ is designated, t otherwise *)
  | T, Internal (a, b) -> [ [ (NT, a) ]; [ (T, a); (T, b) ] ]
  | NT, Internal (a, b) -> [ [ (T, a); (NT, b) ] ]
  | F, Internal (a, b) -> [ [ (T, a); (F, b) ] ]
  | NF, Internal (a, b) -> [ [ (NT, a) ]; [ (T, a); (NF, b) ] ]
  (* φ → ψ  ≝  (φ ⊃ ψ) ∧ (¬ψ ⊃ ¬φ) *)
  | s, Strong (a, b) ->
      [ [ ( s,
            Prop4.And
              (Prop4.Internal (a, b), Prop4.Internal (Prop4.Neg b, Prop4.Neg a))
          ) ] ]
  (* φ ↔ ψ  ≝  (φ → ψ) ∧ (ψ → φ) *)
  | s, Equiv (a, b) ->
      [ [ (s, Prop4.And (Prop4.Strong (a, b), Prop4.Strong (b, a))) ] ]
  | _, Atom _ -> assert false

let conflicts lits (sgn, a) =
  let opposite = match sgn with T -> NT | NT -> T | F -> NF | NF -> F in
  LSet.mem (opposite, a) lits

(* [expanded] holds the compound signed formulas already expanded on this
   branch.  A branch is a set, and one alternative of such a formula is
   already on it, so expanding it again adds no alternative: it is
   skipped.  Without this, nested ↔ and → (which copy their operands)
   re-expand the same subformulas exponentially often. *)
let rec branch_satisfiable lits expanded todo =
  match todo with
  | [] -> true
  | (sgn, Prop4.Atom a) :: rest ->
      if conflicts lits (sgn, a) then false
      else branch_satisfiable (LSet.add (sgn, a) lits) expanded rest
  | sf :: rest when SSet.mem sf expanded ->
      branch_satisfiable lits expanded rest
  | ((sgn, f) as sf) :: rest ->
      let expanded = SSet.add sf expanded in
      List.exists
        (fun br -> branch_satisfiable lits expanded (br @ rest))
        (expand sgn f)

let satisfiable signed = branch_satisfiable LSet.empty SSet.empty signed

let entails gamma phi =
  not (satisfiable ((NT, phi) :: List.map (fun g -> (T, g)) gamma))

let valid phi = entails [] phi
