module ESet = Set.Make (Int)

module Pair = struct
  type t = int * int

  let compare (a1, b1) (a2, b2) =
    let c = Int.compare a1 a2 in
    if c <> 0 then c else Int.compare b1 b2
end

module PSet = Set.Make (Pair)

module VPair = struct
  type t = int * Datatype.value

  let compare (a1, v1) (a2, v2) =
    let c = Int.compare a1 a2 in
    if c <> 0 then c else Datatype.compare_value v1 v2
end

module VSet = Set.Make (VPair)
module SMap = Map.Make (String)

type t = {
  domain : ESet.t;
  data_domain : Datatype.value list;
  concepts : ESet.t SMap.t;
  roles : PSet.t SMap.t;
  data_roles : VSet.t SMap.t;
  individuals : int SMap.t;
}

let make ~domain ?(data_domain = []) ?(concepts = []) ?(roles = [])
    ?(data_roles = []) ?(individuals = []) () =
  { domain;
    data_domain;
    concepts =
      List.fold_left
        (fun m (a, xs) -> SMap.add a (ESet.of_list xs) m)
        SMap.empty concepts;
    roles =
      List.fold_left
        (fun m (r, ps) -> SMap.add r (PSet.of_list ps) m)
        SMap.empty roles;
    data_roles =
      List.fold_left
        (fun m (u, vs) -> SMap.add u (VSet.of_list vs) m)
        SMap.empty data_roles;
    individuals =
      List.fold_left (fun m (a, x) -> SMap.add a x m) SMap.empty individuals }

let concept_ext i a =
  match SMap.find_opt a i.concepts with Some s -> s | None -> ESet.empty

let atomic_role_ext i r =
  match SMap.find_opt r i.roles with Some s -> s | None -> PSet.empty

let role_ext i = function
  | Role.Name r -> atomic_role_ext i r
  | Role.Inv r -> PSet.map (fun (x, y) -> (y, x)) (atomic_role_ext i r)

let data_role_ext i u =
  match SMap.find_opt u i.data_roles with Some s -> s | None -> VSet.empty

let individual i a = SMap.find a i.individuals

let successors pairs x =
  PSet.fold (fun (a, b) acc -> if a = x then ESet.add b acc else acc) pairs ESet.empty

let data_successors pairs x =
  VSet.fold
    (fun (a, v) acc -> if a = x then v :: acc else acc)
    pairs []

let rec eval i (c : Concept.t) =
  match c with
  | Top -> i.domain
  | Bottom -> ESet.empty
  | Atom a -> concept_ext i a
  | Not c -> ESet.diff i.domain (eval i c)
  | And (a, b) -> ESet.inter (eval i a) (eval i b)
  | Or (a, b) -> ESet.union (eval i a) (eval i b)
  | One_of os -> ESet.of_list (List.map (individual i) os)
  | Exists (r, c) ->
      let pairs = role_ext i r and ext = eval i c in
      ESet.filter
        (fun x -> not (ESet.is_empty (ESet.inter (successors pairs x) ext)))
        i.domain
  | Forall (r, c) ->
      let pairs = role_ext i r and ext = eval i c in
      ESet.filter (fun x -> ESet.subset (successors pairs x) ext) i.domain
  | At_least (n, r) ->
      let pairs = role_ext i r in
      ESet.filter (fun x -> ESet.cardinal (successors pairs x) >= n) i.domain
  | At_most (n, r) ->
      let pairs = role_ext i r in
      ESet.filter (fun x -> ESet.cardinal (successors pairs x) <= n) i.domain
  | Data_exists (u, d) ->
      let pairs = data_role_ext i u in
      ESet.filter
        (fun x -> List.exists (fun v -> Datatype.member v d) (data_successors pairs x))
        i.domain
  | Data_forall (u, d) ->
      let pairs = data_role_ext i u in
      ESet.filter
        (fun x -> List.for_all (fun v -> Datatype.member v d) (data_successors pairs x))
        i.domain
  | Data_at_least (n, u) ->
      let pairs = data_role_ext i u in
      ESet.filter
        (fun x ->
          List.length (List.sort_uniq Datatype.compare_value (data_successors pairs x))
          >= n)
        i.domain
  | Data_at_most (n, u) ->
      let pairs = data_role_ext i u in
      ESet.filter
        (fun x ->
          List.length (List.sort_uniq Datatype.compare_value (data_successors pairs x))
          <= n)
        i.domain

let is_transitive pairs =
  PSet.for_all
    (fun (x, y) ->
      PSet.for_all (fun (y', z) -> y <> y' || PSet.mem (x, z) pairs) pairs)
    pairs

let satisfies_tbox i = function
  | Axiom.Concept_sub (c, d) -> ESet.subset (eval i c) (eval i d)
  | Axiom.Role_sub (r, s) -> PSet.subset (role_ext i r) (role_ext i s)
  | Axiom.Data_role_sub (u, v) -> VSet.subset (data_role_ext i u) (data_role_ext i v)
  | Axiom.Transitive r -> is_transitive (atomic_role_ext i r)

let satisfies_abox i = function
  | Axiom.Instance_of (a, c) -> ESet.mem (individual i a) (eval i c)
  | Axiom.Role_assertion (a, r, b) ->
      PSet.mem (individual i a, individual i b) (role_ext i r)
  | Axiom.Data_assertion (a, u, v) ->
      VSet.mem (individual i a, v) (data_role_ext i u)
  | Axiom.Same (a, b) -> individual i a = individual i b
  | Axiom.Different (a, b) -> individual i a <> individual i b

(* [individual] raises on a name [i] does not interpret, and an
   interpretation that leaves one of [kb]'s individuals out is not one
   of its models *)
let is_model i (kb : Axiom.kb) =
  match
    List.for_all (satisfies_tbox i) kb.tbox && List.for_all (satisfies_abox i) kb.abox
  with
  | b -> b
  | exception Not_found -> false

let pp ppf i =
  Format.fprintf ppf "@[<v>domain = {%a}@,"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Format.pp_print_int)
    (ESet.elements i.domain);
  SMap.iter
    (fun a ext ->
      Format.fprintf ppf "%s = {%a}@," a
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Format.pp_print_int)
        (ESet.elements ext))
    i.concepts;
  SMap.iter
    (fun r ext ->
      Format.fprintf ppf "%s = {%a}@," r
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (fun ppf (x, y) -> Format.fprintf ppf "(%d,%d)" x y))
        (PSet.elements ext))
    i.roles;
  SMap.iter (fun a x -> Format.fprintf ppf "%s -> %d@," a x) i.individuals;
  Format.fprintf ppf "@]"
