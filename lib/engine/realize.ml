module SS = Set.Make (String)

type stats = {
  individuals : int;
  atoms : int;
  naive_checks : int;
  positive_checks : int;
  negative_checks : int;
  pruned : int;
}

type entry = {
  name : string;
  types : (string * Truth.t) list;
  most_specific : string list;
}

type t = { entries : entry list; stats : stats }

(* ------------------------------------------------------------------ *)
(* Preparation: hierarchy indexes derived from the classification. *)

type prep = {
  individuals : string list;  (* sorted, unique *)
  atoms : string list;  (* sorted, unique *)
  order : string list;  (* top-down: fewer subsumers first *)
  sup : (string, SS.t) Hashtbl.t;
  subs : (string, SS.t) Hashtbl.t;
}

let prepare ~individuals ~atoms ~supers =
  let atoms = List.sort_uniq String.compare atoms in
  let individuals = List.sort_uniq String.compare individuals in
  let sup = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace sup c (SS.of_list (supers c))) atoms;
  let sup_of c = Option.value ~default:SS.empty (Hashtbl.find_opt sup c) in
  let subs = Hashtbl.create 16 in
  List.iter
    (fun d ->
      SS.iter
        (fun c ->
          let cur = Option.value ~default:SS.empty (Hashtbl.find_opt subs c) in
          Hashtbl.replace subs c (SS.add d cur))
        (sup_of d))
    atoms;
  (* top-down: atoms with fewer subsumers first, so a refuted concept prunes
     its whole cone of subsumees before any of them is checked *)
  let order =
    List.sort
      (fun a b ->
        let c = Int.compare (SS.cardinal (sup_of a)) (SS.cardinal (sup_of b)) in
        if c <> 0 then c else String.compare a b)
      atoms
  in
  { individuals; atoms; order; sup; subs }

let sup_of p c = Option.value ~default:SS.empty (Hashtbl.find_opt p.sup c)
let subs_of p c = Option.value ~default:SS.empty (Hashtbl.find_opt p.subs c)

(* ------------------------------------------------------------------ *)
(* Per-individual realization; individuals are mutually independent. *)

type row = {
  entry : entry;
  row_pos : int;
  row_neg : int;
  row_pruned : int;
}

let realize_one p ~check_pos ~check_neg a =
  let positive_checks = ref 0
  and negative_checks = ref 0
  and pruned = ref 0 in
  let settled = Hashtbl.create 16 in
  let settle c v =
    if not (Hashtbl.mem settled c) then begin
      Hashtbl.add settled c v;
      incr pruned
    end
  in
  List.iter
    (fun c ->
      if not (Hashtbl.mem settled c) then begin
        incr positive_checks;
        let v = check_pos a c in
        Hashtbl.add settled c v;
        if v then SS.iter (fun s -> settle s true) (sup_of p c)
        else SS.iter (fun d -> settle d false) (subs_of p c)
      end)
    p.order;
  let pos c = Hashtbl.find settled c in
  let types =
    List.map
      (fun c ->
        incr negative_checks;
        let told_false = check_neg a c in
        (c, Truth.of_pair ~told_true:(pos c) ~told_false))
      p.atoms
  in
  let strictly_below d c = SS.mem c (sup_of p d) && not (SS.mem d (sup_of p c)) in
  let most_specific =
    List.filter
      (fun c ->
        pos c
        && not (List.exists (fun d -> pos d && strictly_below d c) p.atoms))
      p.atoms
  in
  { entry = { name = a; types; most_specific };
    row_pos = !positive_checks;
    row_neg = !negative_checks;
    row_pruned = !pruned }

let run ~individuals ~atoms ~supers ~check_pos ~check_neg =
  let p = prepare ~individuals ~atoms ~supers in
  let rows = List.map (realize_one p ~check_pos ~check_neg) p.individuals in
  let ni = List.length p.individuals and na = List.length p.atoms in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  { entries = List.map (fun r -> r.entry) rows;
    stats =
      { individuals = ni;
        atoms = na;
        naive_checks = 2 * ni * na;
        positive_checks = sum (fun r -> r.row_pos);
        negative_checks = sum (fun r -> r.row_neg);
        pruned = sum (fun r -> r.row_pruned) } }
