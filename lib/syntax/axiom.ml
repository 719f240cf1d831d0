type tbox_axiom =
  | Concept_sub of Concept.t * Concept.t
  | Role_sub of Role.t * Role.t
  | Data_role_sub of string * string
  | Transitive of string

type abox_axiom =
  | Instance_of of string * Concept.t
  | Role_assertion of string * Role.t * string
  | Data_assertion of string * string * Datatype.value
  | Same of string * string
  | Different of string * string

type kb = { tbox : tbox_axiom list; abox : abox_axiom list }

let empty = { tbox = []; abox = [] }
let make ~tbox ~abox = { tbox; abox }
let union k1 k2 = { tbox = k1.tbox @ k2.tbox; abox = k1.abox @ k2.abox }

let remove_each axs abox =
  List.fold_left
    (fun abox ax ->
      let rec drop = function
        | [] -> []
        | hd :: tl -> if hd = ax then tl else hd :: drop tl
      in
      drop abox)
    abox axs

let size kb = List.length kb.tbox + List.length kb.abox

let concept_equiv c d = [ Concept_sub (c, d); Concept_sub (d, c) ]
let disjoint c d = Concept_sub (c, Concept.neg d)

let compare_tbox_axiom a b =
  let tag = function
    | Concept_sub _ -> 0
    | Role_sub _ -> 1
    | Data_role_sub _ -> 2
    | Transitive _ -> 3
  in
  match (a, b) with
  | Concept_sub (c1, d1), Concept_sub (c2, d2) ->
      let c = Concept.compare c1 c2 in
      if c <> 0 then c else Concept.compare d1 d2
  | Role_sub (r1, s1), Role_sub (r2, s2) ->
      let c = Role.compare r1 r2 in
      if c <> 0 then c else Role.compare s1 s2
  | Data_role_sub (u1, v1), Data_role_sub (u2, v2) ->
      let c = String.compare u1 u2 in
      if c <> 0 then c else String.compare v1 v2
  | Transitive r1, Transitive r2 -> String.compare r1 r2
  | _ -> Int.compare (tag a) (tag b)

let compare_abox_axiom a b =
  let tag = function
    | Instance_of _ -> 0
    | Role_assertion _ -> 1
    | Data_assertion _ -> 2
    | Same _ -> 3
    | Different _ -> 4
  in
  match (a, b) with
  | Instance_of (x1, c1), Instance_of (x2, c2) ->
      let c = String.compare x1 x2 in
      if c <> 0 then c else Concept.compare c1 c2
  | Role_assertion (x1, r1, y1), Role_assertion (x2, r2, y2) ->
      let c = String.compare x1 x2 in
      if c <> 0 then c
      else
        let c = Role.compare r1 r2 in
        if c <> 0 then c else String.compare y1 y2
  | Data_assertion (x1, u1, v1), Data_assertion (x2, u2, v2) ->
      let c = String.compare x1 x2 in
      if c <> 0 then c
      else
        let c = String.compare u1 u2 in
        if c <> 0 then c else Datatype.compare_value v1 v2
  | Same (x1, y1), Same (x2, y2) | Different (x1, y1), Different (x2, y2) ->
      let c = String.compare x1 x2 in
      if c <> 0 then c else String.compare y1 y2
  | _ -> Int.compare (tag a) (tag b)

let pp_tbox_axiom ppf = function
  | Concept_sub (c, d) -> Format.fprintf ppf "%a << %a." Concept.pp c Concept.pp d
  | Role_sub (r, s) -> Format.fprintf ppf "role %a << %a." Role.pp r Role.pp s
  | Data_role_sub (u, v) -> Format.fprintf ppf "datarole %s << %s." u v
  | Transitive r -> Format.fprintf ppf "transitive %s." r

let pp_abox_axiom ppf = function
  | Instance_of (a, c) -> Format.fprintf ppf "%s : %a." a Concept.pp c
  | Role_assertion (a, r, b) -> Format.fprintf ppf "%a(%s, %s)." Role.pp r a b
  | Data_assertion (a, u, v) ->
      Format.fprintf ppf "%s(%s, %a)." u a Datatype.pp_value v
  | Same (a, b) -> Format.fprintf ppf "%s = %s." a b
  | Different (a, b) -> Format.fprintf ppf "%s != %s." a b

let pp ppf kb =
  List.iter (fun ax -> Format.fprintf ppf "%a@." pp_tbox_axiom ax) kb.tbox;
  List.iter (fun ax -> Format.fprintf ppf "%a@." pp_abox_axiom ax) kb.abox

type signature = {
  concepts : string list;
  roles : string list;
  data_roles : string list;
  individuals : string list;
}

module Strings = Set.Make (String)

type sig_sets = {
  s_concepts : Strings.t;
  s_roles : Strings.t;
  s_data_roles : Strings.t;
  s_individuals : Strings.t;
}

let empty_sets =
  { s_concepts = Strings.empty;
    s_roles = Strings.empty;
    s_data_roles = Strings.empty;
    s_individuals = Strings.empty }

let add_concept_sig s c =
  { s_concepts = Strings.union s.s_concepts (Strings.of_list (Concept.atom_names c));
    s_roles = Strings.union s.s_roles (Strings.of_list (Concept.role_names c));
    s_data_roles =
      Strings.union s.s_data_roles (Strings.of_list (Concept.data_role_names c));
    s_individuals =
      Strings.union s.s_individuals (Strings.of_list (Concept.individual_names c)) }

let sets_of_kb kb =
  let s =
    List.fold_left
      (fun s -> function
        | Concept_sub (c, d) -> add_concept_sig (add_concept_sig s c) d
        | Role_sub (r1, r2) ->
            { s with
              s_roles =
                Strings.add (Role.base r1) (Strings.add (Role.base r2) s.s_roles) }
        | Data_role_sub (u1, u2) ->
            { s with s_data_roles = Strings.add u1 (Strings.add u2 s.s_data_roles) }
        | Transitive r -> { s with s_roles = Strings.add r s.s_roles })
      empty_sets kb.tbox
  in
  List.fold_left
    (fun s -> function
      | Instance_of (a, c) ->
          let s = add_concept_sig s c in
          { s with s_individuals = Strings.add a s.s_individuals }
      | Role_assertion (a, r, b) ->
          { s with
            s_roles = Strings.add (Role.base r) s.s_roles;
            s_individuals = Strings.add a (Strings.add b s.s_individuals) }
      | Data_assertion (a, u, _) ->
          { s with
            s_data_roles = Strings.add u s.s_data_roles;
            s_individuals = Strings.add a s.s_individuals }
      | Same (a, b) | Different (a, b) ->
          { s with s_individuals = Strings.add a (Strings.add b s.s_individuals) })
    s kb.abox

let of_sets s =
  { concepts = Strings.elements s.s_concepts;
    roles = Strings.elements s.s_roles;
    data_roles = Strings.elements s.s_data_roles;
    individuals = Strings.elements s.s_individuals }

let signature kb = of_sets (sets_of_kb kb)

let empty_signature = { concepts = []; roles = []; data_roles = []; individuals = [] }

let signature_union a b =
  let u x y = Strings.elements (Strings.union (Strings.of_list x) (Strings.of_list y)) in
  { concepts = u a.concepts b.concepts;
    roles = u a.roles b.roles;
    data_roles = u a.data_roles b.data_roles;
    individuals = u a.individuals b.individuals }
