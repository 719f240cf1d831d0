module SS = Set.Make (String)

type stats = {
  atoms : int;
  naive_tests : int;
  tableau_tests : int;
  told_hits : int;
  dag_hits : int;
}

let tableau_calls_saved s = s.naive_tests - s.tableau_tests

type t = { supers : (string * string list) list; stats : stats }

(* ------------------------------------------------------------------ *)
(* Preparation: everything derivable from the signature and the told
   axioms alone. *)

type prep = {
  atoms : string list;  (* sorted, unique *)
  order : string list;  (* top-down topological order of the told DAG *)
  closure : (string, SS.t) Hashtbl.t;  (* fully populated, never mutated *)
}

let prepare ~atoms ~told =
  let atoms = List.sort_uniq String.compare atoms in
  let atom_set = SS.of_list atoms in
  (* direct told edges, restricted to the signature *)
  let told_edges = Hashtbl.create 16 in
  List.iter
    (fun (a, b) ->
      if a <> b && SS.mem a atom_set && SS.mem b atom_set then
        let cur =
          Option.value ~default:SS.empty (Hashtbl.find_opt told_edges a)
        in
        Hashtbl.replace told_edges a (SS.add b cur))
    told;
  (* reflexive-transitive closure of the told graph, computed eagerly for
     every atom (iterative DFS: told cycles — equivalent atoms — are
     allowed) *)
  let closure = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let seen = ref (SS.singleton a) in
      let stack = ref [ a ] in
      while !stack <> [] do
        let x = List.hd !stack in
        stack := List.tl !stack;
        SS.iter
          (fun y ->
            if not (SS.mem y !seen) then begin
              seen := SS.add y !seen;
              stack := y :: !stack
            end)
          (Option.value ~default:SS.empty (Hashtbl.find_opt told_edges x))
      done;
      Hashtbl.add closure a !seen)
    atoms;
  let told_sup a =
    Option.value ~default:SS.empty (Hashtbl.find_opt closure a)
  in
  (* top-down order: an atom's told subsumers come before it.  Sorting by
     closure cardinality is a topological order of the told DAG (strict told
     subsumers have strictly smaller closures); told-equivalent atoms tie,
     where either order prunes equally well. *)
  let order =
    List.sort
      (fun a b ->
        let c =
          Int.compare (SS.cardinal (told_sup a)) (SS.cardinal (told_sup b))
        in
        if c <> 0 then c else String.compare a b)
      atoms
  in
  { atoms; order; closure }

let told_sup p a =
  Option.value ~default:SS.empty (Hashtbl.find_opt p.closure a)

(* ------------------------------------------------------------------ *)
(* The row loop: one atom's supers, with told seeding and DAG pruning.
   [rows] walks the classification order, carrying a results table so
   positive verdicts of earlier rows keep pruning later ones.  Pruning
   only skips tests whose answer is already implied, so the supers are
   the exact subsumption relation. *)

type row = {
  atom : string;
  row_supers : SS.t;
  row_tests : int;
  row_told : int;
  row_dag : int;
}

let rows p ~test =
  let results = Hashtbl.create 16 in
  List.map
    (fun a ->
      let seeds = SS.remove a (told_sup p a) in
      let row_told = SS.cardinal seeds in
      let tests = ref 0 and dag = ref 0 in
      let pos = ref seeds and neg = ref SS.empty in
      List.iter
        (fun b ->
          if b <> a && (not (SS.mem b !pos)) && not (SS.mem b !neg) then
            if SS.exists (fun c -> c <> b && SS.mem c !neg) (told_sup p b)
            then begin
              (* a ⋢ c for a told subsumer c of b, so a ⋢ b *)
              neg := SS.add b !neg;
              incr dag
            end
            else begin
              incr tests;
              if test a b then begin
                pos := SS.add b !pos;
                let known_b =
                  match Hashtbl.find_opt results b with
                  | Some sb -> SS.union (told_sup p b) sb
                  | None -> told_sup p b
                in
                let extra = SS.diff (SS.remove a (SS.remove b known_b)) !pos in
                dag := !dag + SS.cardinal extra;
                pos := SS.union !pos extra
              end
              else neg := SS.add b !neg
            end)
        p.order;
      Hashtbl.replace results a !pos;
      { atom = a;
        row_supers = !pos;
        row_tests = !tests;
        row_told;
        row_dag = !dag })
    p.order

(* [rows] visits every atom of the signature exactly once, in [order];
   the result lists them in signature order. *)
let run ~atoms ~told ~test =
  let p = prepare ~atoms ~told in
  let row_list = rows p ~test in
  let by_atom = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace by_atom r.atom r) row_list;
  let n = List.length p.atoms in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 row_list in
  { supers =
      List.map
        (fun a -> (a, SS.elements (Hashtbl.find by_atom a).row_supers))
        p.atoms;
    stats =
      { atoms = n;
        naive_tests = n * (n - 1);
        tableau_tests = sum (fun r -> r.row_tests);
        told_hits = sum (fun r -> r.row_told);
        dag_hits = sum (fun r -> r.row_dag) } }

let supers_fn t a = try List.assoc a t.supers with Not_found -> []

(* Group equivalent atoms and reduce the subsumption DAG to direct edges
   (previously inlined in [Para.taxonomy]). *)
let taxonomy hierarchy =
  let supers a = try List.assoc a hierarchy with Not_found -> [] in
  let equiv a b = List.mem b (supers a) && List.mem a (supers b) in
  let atoms = List.map fst hierarchy in
  (* canonical representative: first member in signature order *)
  let repr a = List.find (fun b -> equiv a b || b = a) atoms in
  let classes =
    List.filter_map
      (fun a ->
        if repr a = a then
          Some (a :: List.filter (fun b -> b <> a && equiv a b) atoms)
        else None)
      atoms
  in
  let strict_supers a = List.filter (fun b -> not (equiv a b)) (supers a) in
  List.map
    (fun cls ->
      let a = List.hd cls in
      let ss = strict_supers a in
      (* direct supers: not implied through another strict super *)
      let direct =
        List.filter
          (fun b ->
            (not
               (List.exists (fun c -> c <> b && List.mem b (strict_supers c)) ss))
            && repr b = b)
          ss
      in
      (cls, direct))
    classes
