type inclusion = Material | Internal | Strong

let all_inclusions = [ Material; Internal; Strong ]

let inclusion_symbol = function
  | Material -> "|->"
  | Internal -> "<"
  | Strong -> "->"

let pp_inclusion ppf i = Format.pp_print_string ppf (inclusion_symbol i)

type tbox_axiom =
  | Concept_inclusion of inclusion * Concept.t * Concept.t
  | Role_inclusion of inclusion * Role.t * Role.t
  | Data_role_inclusion of inclusion * string * string
  | Transitive of string

type t = { tbox : tbox_axiom list; abox : Axiom.abox_axiom list }

let empty = { tbox = []; abox = [] }
let make ~tbox ~abox = { tbox; abox }
let union k1 k2 = { tbox = k1.tbox @ k2.tbox; abox = k1.abox @ k2.abox }
let size kb = List.length kb.tbox + List.length kb.abox

let of_classical ?(inclusion = Internal) (kb : Axiom.kb) =
  let tbox =
    List.map
      (function
        | Axiom.Concept_sub (c, d) -> Concept_inclusion (inclusion, c, d)
        | Axiom.Role_sub (r, s) -> Role_inclusion (inclusion, r, s)
        | Axiom.Data_role_sub (u, v) -> Data_role_inclusion (inclusion, u, v)
        | Axiom.Transitive r -> Transitive r)
      kb.Axiom.tbox
  in
  { tbox; abox = kb.Axiom.abox }

(* Signature is computed by dropping inclusion kinds and reusing
   [Axiom.signature]. *)
let signature kb =
  let tbox =
    List.map
      (function
        | Concept_inclusion (_, c, d) -> Axiom.Concept_sub (c, d)
        | Role_inclusion (_, r, s) -> Axiom.Role_sub (r, s)
        | Data_role_inclusion (_, u, v) -> Axiom.Data_role_sub (u, v)
        | Transitive r -> Axiom.Transitive r)
      kb.tbox
  in
  Axiom.signature { Axiom.tbox; abox = kb.abox }

let compare_inclusion a b =
  let tag = function Material -> 0 | Internal -> 1 | Strong -> 2 in
  Int.compare (tag a) (tag b)

let compare_tbox_axiom a b =
  let tag = function
    | Concept_inclusion _ -> 0
    | Role_inclusion _ -> 1
    | Data_role_inclusion _ -> 2
    | Transitive _ -> 3
  in
  match (a, b) with
  | Concept_inclusion (i1, c1, d1), Concept_inclusion (i2, c2, d2) ->
      let c = compare_inclusion i1 i2 in
      if c <> 0 then c
      else
        let c = Concept.compare c1 c2 in
        if c <> 0 then c else Concept.compare d1 d2
  | Role_inclusion (i1, r1, s1), Role_inclusion (i2, r2, s2) ->
      let c = compare_inclusion i1 i2 in
      if c <> 0 then c
      else
        let c = Role.compare r1 r2 in
        if c <> 0 then c else Role.compare s1 s2
  | Data_role_inclusion (i1, u1, v1), Data_role_inclusion (i2, u2, v2) ->
      let c = compare_inclusion i1 i2 in
      if c <> 0 then c
      else
        let c = String.compare u1 u2 in
        if c <> 0 then c else String.compare v1 v2
  | Transitive r1, Transitive r2 -> String.compare r1 r2
  | _ -> Int.compare (tag a) (tag b)

let pp_tbox_axiom ppf = function
  | Concept_inclusion (i, c, d) ->
      Format.fprintf ppf "%a %s %a." Concept.pp c (inclusion_symbol i) Concept.pp d
  | Role_inclusion (i, r, s) ->
      Format.fprintf ppf "role %a %s %a." Role.pp r (inclusion_symbol i) Role.pp s
  | Data_role_inclusion (i, u, v) ->
      Format.fprintf ppf "datarole %s %s %s." u (inclusion_symbol i) v
  | Transitive r -> Format.fprintf ppf "transitive %s." r

let pp ppf kb =
  List.iter (fun ax -> Format.fprintf ppf "%a@." pp_tbox_axiom ax) kb.tbox;
  List.iter (fun ax -> Format.fprintf ppf "%a@." Axiom.pp_abox_axiom ax) kb.abox
