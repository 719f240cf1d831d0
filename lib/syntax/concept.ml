type t =
  | Top
  | Bottom
  | Atom of string
  | Not of t
  | And of t * t
  | Or of t * t
  | One_of of string list
  | Exists of Role.t * t
  | Forall of Role.t * t
  | At_least of int * Role.t
  | At_most of int * Role.t
  | Data_exists of string * Datatype.t
  | Data_forall of string * Datatype.t
  | Data_at_least of int * string
  | Data_at_most of int * string

let rec compare a b =
  let tag = function
    | Top -> 0
    | Bottom -> 1
    | Atom _ -> 2
    | Not _ -> 3
    | And _ -> 4
    | Or _ -> 5
    | One_of _ -> 6
    | Exists _ -> 7
    | Forall _ -> 8
    | At_least _ -> 9
    | At_most _ -> 10
    | Data_exists _ -> 11
    | Data_forall _ -> 12
    | Data_at_least _ -> 13
    | Data_at_most _ -> 14
  in
  match (a, b) with
  | Top, Top | Bottom, Bottom -> 0
  | Atom x, Atom y -> String.compare x y
  | Not x, Not y -> compare x y
  | And (x1, y1), And (x2, y2) | Or (x1, y1), Or (x2, y2) ->
      let c = compare x1 x2 in
      if c <> 0 then c else compare y1 y2
  | One_of x, One_of y -> List.compare String.compare x y
  | Exists (r1, c1), Exists (r2, c2) | Forall (r1, c1), Forall (r2, c2) ->
      let c = Role.compare r1 r2 in
      if c <> 0 then c else compare c1 c2
  | At_least (n1, r1), At_least (n2, r2) | At_most (n1, r1), At_most (n2, r2) ->
      let c = Int.compare n1 n2 in
      if c <> 0 then c else Role.compare r1 r2
  | Data_exists (u1, d1), Data_exists (u2, d2)
  | Data_forall (u1, d1), Data_forall (u2, d2) ->
      let c = String.compare u1 u2 in
      if c <> 0 then c else Datatype.compare d1 d2
  | Data_at_least (n1, u1), Data_at_least (n2, u2)
  | Data_at_most (n1, u1), Data_at_most (n2, u2) ->
      let c = Int.compare n1 n2 in
      if c <> 0 then c else String.compare u1 u2
  | _ -> Int.compare (tag a) (tag b)

let equal a b = compare a b = 0

let conj cs =
  let cs = List.filter (fun c -> c <> Top) cs in
  if List.exists (fun c -> c = Bottom) cs then Bottom
  else
    match cs with
    | [] -> Top
    | [ c ] -> c
    | c :: rest -> List.fold_left (fun acc d -> And (acc, d)) c rest

let disj cs =
  let cs = List.filter (fun c -> c <> Bottom) cs in
  if List.exists (fun c -> c = Top) cs then Top
  else
    match cs with
    | [] -> Bottom
    | [ c ] -> c
    | c :: rest -> List.fold_left (fun acc d -> Or (acc, d)) c rest

let neg = function Not c -> c | Top -> Bottom | Bottom -> Top | c -> Not c

let rec nnf = function
  | (Top | Bottom | Atom _ | One_of _) as c -> c
  | (At_least _ | At_most _ | Data_at_least _ | Data_at_most _) as c -> c
  | (Data_exists _ | Data_forall _) as c -> c
  | And (a, b) -> And (nnf a, nnf b)
  | Or (a, b) -> Or (nnf a, nnf b)
  | Exists (r, c) -> Exists (r, nnf c)
  | Forall (r, c) -> Forall (r, nnf c)
  | Not c -> nnf_neg c

and nnf_neg = function
  | Top -> Bottom
  | Bottom -> Top
  | Atom _ as a -> Not a
  | One_of _ as o -> Not o
  | Not c -> nnf c
  | And (a, b) -> Or (nnf_neg a, nnf_neg b)
  | Or (a, b) -> And (nnf_neg a, nnf_neg b)
  | Exists (r, c) -> Forall (r, nnf_neg c)
  | Forall (r, c) -> Exists (r, nnf_neg c)
  | At_least (n, r) -> if n = 0 then Bottom else At_most (n - 1, r)
  | At_most (n, r) -> At_least (n + 1, r)
  | Data_exists (u, d) -> Data_forall (u, Datatype.Complement d)
  | Data_forall (u, d) -> Data_exists (u, Datatype.Complement d)
  | Data_at_least (n, u) -> if n = 0 then Bottom else Data_at_most (n - 1, u)
  | Data_at_most (n, u) -> Data_at_least (n + 1, u)

let rec hash c =
  let comb tag h = (tag * 65599) + h in
  match c with
  | Top -> 1
  | Bottom -> 2
  | Atom a -> comb 3 (Hashtbl.hash a)
  | Not d -> comb 5 (hash d)
  | And (a, b) -> comb 7 ((hash a * 31) + hash b)
  | Or (a, b) -> comb 11 ((hash a * 31) + hash b)
  | One_of os -> comb 13 (Hashtbl.hash os)
  | Exists (r, d) -> comb 17 ((Hashtbl.hash r * 31) + hash d)
  | Forall (r, d) -> comb 19 ((Hashtbl.hash r * 31) + hash d)
  | At_least (n, r) -> comb 23 ((n * 31) + Hashtbl.hash r)
  | At_most (n, r) -> comb 29 ((n * 31) + Hashtbl.hash r)
  | Data_exists (u, d) -> comb 31 ((Hashtbl.hash u * 31) + Hashtbl.hash d)
  | Data_forall (u, d) -> comb 37 ((Hashtbl.hash u * 31) + Hashtbl.hash d)
  | Data_at_least (n, u) -> comb 41 ((n * 31) + Hashtbl.hash u)
  | Data_at_most (n, u) -> comb 43 ((n * 31) + Hashtbl.hash u)

(* Canonicalization happens after NNF, so [Not] only wraps atoms/nominals
   and the connectives to flatten are the n-ary readings of [And]/[Or]. *)
let canon c =
  let rec conjuncts = function
    | And (a, b) -> conjuncts a @ conjuncts b
    | c -> [ c ]
  in
  let rec disjuncts = function
    | Or (a, b) -> disjuncts a @ disjuncts b
    | c -> [ c ]
  in
  let rec go c =
    match c with
    | Top | Bottom | Atom _ -> c
    | One_of os -> One_of (List.sort_uniq String.compare os)
    | Not d -> neg (go d)
    | And _ -> rebuild_and (List.map go (conjuncts c))
    | Or _ -> rebuild_or (List.map go (disjuncts c))
    | Exists (r, d) -> Exists (r, go d)
    | Forall (r, d) -> Forall (r, go d)
    | At_least _ | At_most _ -> c
    | Data_exists _ | Data_forall _ | Data_at_least _ | Data_at_most _ -> c
  and rebuild_and cs =
    let cs = List.sort_uniq compare (List.concat_map conjuncts cs) in
    if List.mem Bottom cs then Bottom
    else
      match List.filter (fun c -> c <> Top) cs with
      | [] -> Top
      | [ c ] -> c
      | c :: rest -> List.fold_left (fun acc d -> And (acc, d)) c rest
  and rebuild_or cs =
    let cs = List.sort_uniq compare (List.concat_map disjuncts cs) in
    if List.mem Top cs then Top
    else
      match List.filter (fun c -> c <> Bottom) cs with
      | [] -> Bottom
      | [ c ] -> c
      | c :: rest -> List.fold_left (fun acc d -> Or (acc, d)) c rest
  in
  go (nnf c)

let rec is_nnf = function
  | Top | Bottom | Atom _ | One_of _ -> true
  | Not (Atom _) | Not (One_of _) -> true
  | Not _ -> false
  | And (a, b) | Or (a, b) -> is_nnf a && is_nnf b
  | Exists (_, c) | Forall (_, c) -> is_nnf c
  | At_least _ | At_most _ -> true
  | Data_exists _ | Data_forall _ | Data_at_least _ | Data_at_most _ -> true

let rec size = function
  | Top | Bottom | Atom _ | One_of _ -> 1
  | At_least _ | At_most _ | Data_at_least _ | Data_at_most _ -> 1
  | Data_exists _ | Data_forall _ -> 1
  | Not c -> 1 + size c
  | And (a, b) | Or (a, b) -> 1 + size a + size b
  | Exists (_, c) | Forall (_, c) -> 1 + size c

let rec depth = function
  | Top | Bottom | Atom _ | One_of _ -> 0
  | At_least _ | At_most _ | Data_at_least _ | Data_at_most _ -> 1
  | Data_exists _ | Data_forall _ -> 1
  | Not c -> depth c
  | And (a, b) | Or (a, b) -> max (depth a) (depth b)
  | Exists (_, c) | Forall (_, c) -> 1 + depth c

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

let subconcepts c =
  let rec go acc c =
    let acc = Set.add c acc in
    match c with
    | Top | Bottom | Atom _ | One_of _ -> acc
    | At_least _ | At_most _ | Data_at_least _ | Data_at_most _ -> acc
    | Data_exists _ | Data_forall _ -> acc
    | Not d -> go acc d
    | And (a, b) | Or (a, b) -> go (go acc a) b
    | Exists (_, d) | Forall (_, d) -> go acc d
  in
  Set.elements (go Set.empty c)

module Strings = Stdlib.Set.Make (String)

let collect f c =
  let rec go acc c =
    let acc = f acc c in
    match c with
    | Top | Bottom | Atom _ | One_of _ -> acc
    | At_least _ | At_most _ | Data_at_least _ | Data_at_most _ -> acc
    | Data_exists _ | Data_forall _ -> acc
    | Not d -> go acc d
    | And (a, b) | Or (a, b) -> go (go acc a) b
    | Exists (_, d) | Forall (_, d) -> go acc d
  in
  Strings.elements (go Strings.empty c)

let atom_names c =
  collect (fun acc -> function Atom a -> Strings.add a acc | _ -> acc) c

let role_names c =
  collect
    (fun acc -> function
      | Exists (r, _) | Forall (r, _) | At_least (_, r) | At_most (_, r) ->
          Strings.add (Role.base r) acc
      | _ -> acc)
    c

let data_role_names c =
  collect
    (fun acc -> function
      | Data_exists (u, _) | Data_forall (u, _) | Data_at_least (_, u)
      | Data_at_most (_, u) ->
          Strings.add u acc
      | _ -> acc)
    c

let individual_names c =
  collect
    (fun acc -> function
      | One_of os -> List.fold_left (fun acc o -> Strings.add o acc) acc os
      | _ -> acc)
    c

let rec pp ppf c =
  match c with
  | Top -> Format.pp_print_string ppf "Top"
  | Bottom -> Format.pp_print_string ppf "Bottom"
  | Atom a -> Format.pp_print_string ppf a
  | Not c -> Format.fprintf ppf "~%a" pp_atomic c
  | And (a, b) -> Format.fprintf ppf "%a & %a" pp_atomic a pp_atomic b
  | Or (a, b) -> Format.fprintf ppf "%a | %a" pp_atomic a pp_atomic b
  | One_of os ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Format.pp_print_string)
        os
  | Exists (r, c) -> Format.fprintf ppf "some %a.%a" Role.pp r pp_atomic c
  | Forall (r, c) -> Format.fprintf ppf "only %a.%a" Role.pp r pp_atomic c
  | At_least (n, r) -> Format.fprintf ppf ">= %d %a" n Role.pp r
  | At_most (n, r) -> Format.fprintf ppf "<= %d %a" n Role.pp r
  | Data_exists (u, d) -> Format.fprintf ppf "some %s:%a" u Datatype.pp d
  | Data_forall (u, d) -> Format.fprintf ppf "only %s:%a" u Datatype.pp d
  | Data_at_least (n, u) -> Format.fprintf ppf ">= %d data %s" n u
  | Data_at_most (n, u) -> Format.fprintf ppf "<= %d data %s" n u

and pp_atomic ppf c =
  match c with
  | Top | Bottom | Atom _ | One_of _ -> pp ppf c
  | Not _ -> pp ppf c
  | _ -> Format.fprintf ppf "(%a)" pp c

(* Atomic concepts skip the [Format] round trip: every computed verdict's
   cost record renders its query, mostly an atom. *)
let to_string = function
  | Top -> "Top"
  | Bottom -> "Bottom"
  | Atom a -> a
  | c -> Format.asprintf "%a" pp c
