(* The inconsistency audit plane: census, report, drift.  Every verdict
   routes through the Para grid paths (and so the oracle); this module
   never calls the tableau directly. *)

type fact =
  | Concept_fact of string * string
  | Role_fact of string * Role.t * string

let fact_to_string = function
  | Concept_fact (a, c) -> c ^ "(" ^ a ^ ")"
  | Role_fact (a, r, b) -> Role.to_string r ^ "(" ^ a ^ ", " ^ b ^ ")"

type census = {
  cs_individuals : int;
  cs_concepts : int;
  cs_role_facts : int;
  cs_entries : (fact * Truth.t) list;
}

(* the swept fact space, in the stable order both census variants use *)
let fact_space para =
  let kb = Session.kb para in
  let signature = Kb4.signature kb in
  let individuals = signature.Axiom.individuals in
  let concepts = List.sort_uniq String.compare signature.Axiom.concepts in
  let grid =
    List.concat_map
      (fun a -> List.map (fun c -> (a, c)) concepts)
      individuals
  in
  let role_facts =
    List.sort_uniq compare
      (List.filter_map
         (function
           | Axiom.Role_assertion (a, r, b) -> Some (a, r, b)
           | _ -> None)
         kb.Kb4.abox)
  in
  (individuals, concepts, grid, role_facts)

let make_census ~individuals ~concepts ~role_facts entries =
  { cs_individuals = List.length individuals;
    cs_concepts = List.length concepts;
    cs_role_facts = List.length role_facts;
    cs_entries = entries }

let census para =
  Obs.with_span ~cat:"audit" "audit.census" (fun () ->
      let individuals, concepts, grid, role_facts = fact_space para in
      let concept_entries =
        List.map2
          (fun (a, c) (_, _, v) -> (Concept_fact (a, c), v))
          grid
          (Para.instance_truths para
             (List.map (fun (a, c) -> (a, Concept.Atom c)) grid))
      in
      let role_entries =
        List.map
          (fun (a, r, b, v) -> (Role_fact (a, r, b), v))
          (Para.role_truths para role_facts)
      in
      make_census ~individuals ~concepts ~role_facts
        (concept_entries @ role_entries))

let census_naive para =
  let individuals, concepts, grid, role_facts = fact_space para in
  let concept_entries =
    List.map
      (fun (a, c) ->
        (Concept_fact (a, c), Para.instance_truth para a (Concept.Atom c)))
      grid
  in
  let role_entries =
    List.map
      (fun (a, r, b) -> (Role_fact (a, r, b), Para.role_truth para a r b))
      role_facts
  in
  make_census ~individuals ~concepts ~role_facts
    (concept_entries @ role_entries)

(* ---- derived health numbers --------------------------------------- *)

let count cs v =
  List.fold_left
    (fun n (_, v') -> if Truth.equal v v' then n + 1 else n)
    0 cs.cs_entries

let decided cs =
  List.fold_left
    (fun n (_, v) ->
      match v with
      | Truth.True | Truth.False | Truth.Both -> n + 1
      | Truth.Neither -> n)
    0 cs.cs_entries

let inconsistency_ratio cs =
  let d = decided cs in
  if d = 0 then 0. else float_of_int (count cs Truth.Both) /. float_of_int d

let tbl_add tbl k n =
  Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let per_concept cs =
  let b = Hashtbl.create 16 and dec = Hashtbl.create 16 in
  List.iter
    (fun (f, v) ->
      match f with
      | Concept_fact (_, c) ->
          (match v with
          | Truth.Both ->
              tbl_add b c 1;
              tbl_add dec c 1
          | Truth.True | Truth.False -> tbl_add dec c 1
          | Truth.Neither -> ());
          (* make sure every swept concept appears, decided or not *)
          tbl_add dec c 0
      | Role_fact _ -> ())
    cs.cs_entries;
  List.sort
    (fun (c1, _, _) (c2, _, _) -> String.compare c1 c2)
    (Hashtbl.fold
       (fun c d acc ->
         (c, Option.value ~default:0 (Hashtbl.find_opt b c), d) :: acc)
       dec [])

let top_of tally k =
  let ranked =
    List.sort
      (fun (n1, x1) (n2, x2) ->
        match Int.compare n2 n1 with 0 -> String.compare x1 x2 | c -> c)
      (Hashtbl.fold (fun x n acc -> if n > 0 then (n, x) :: acc else acc)
         tally [])
  in
  List.filteri (fun i _ -> i < k) (List.map (fun (n, x) -> (x, n)) ranked)

let top_individuals cs ~k =
  let tally = Hashtbl.create 16 in
  List.iter
    (fun (f, v) ->
      if Truth.equal v Truth.Both then
        match f with
        | Concept_fact (a, _) -> tbl_add tally a 1
        | Role_fact (a, _, b) ->
            tbl_add tally a 1;
            if a <> b then tbl_add tally b 1)
    cs.cs_entries;
  top_of tally k

let top_concepts cs ~k =
  let tally = Hashtbl.create 16 in
  List.iter
    (fun (f, v) ->
      match (f, v) with
      | Concept_fact (_, c), Truth.Both -> tbl_add tally c 1
      | _ -> ())
    cs.cs_entries;
  top_of tally k

(* ---- the dl4-audit/1 report --------------------------------------- *)

let schema = "dl4-audit/1"

(* union of the oracle provenance of an individual's ⊤-valued concept
   facts — present only while the verdicts are cache-resident *)
let provenance_of para cs a =
  let oracle = Session.oracle para in
  let inds = ref [] and cons = ref [] in
  let add (p : Oracle.prov_entry) =
    inds := p.Oracle.individuals @ !inds;
    cons := p.Oracle.concepts @ !cons
  in
  List.iter
    (fun (f, v) ->
      match f with
      | Concept_fact (a', c) when a' = a && Truth.equal v Truth.Both ->
          List.iter
            (fun q -> Option.iter add (Oracle.provenance oracle q))
            [ Oracle.Instance (a, Concept.Atom c);
              Oracle.Not_instance (a, Concept.Atom c) ]
      | _ -> ())
    cs.cs_entries;
  ( List.sort_uniq String.compare !inds,
    List.sort_uniq String.compare !cons )

(* the per-value counts, in [Truth.all] order *)
let counts_json cs =
  Json_lite.(
    Obj (List.map (fun v -> (Truth.short_string v, int (count cs v))) Truth.all))

let report ?(top = 5) ?exactly para cs =
  let stats = Kb_stats.of_kb4 (Session.kb para) in
  Json_lite.(
    let strs l = Arr (List.map (fun s -> Str s) l) in
    let exactly_fields =
      match exactly with
      | None -> []
      | Some values ->
          [ ("exactly", strs (List.map Truth.short_string values));
            ( "facts",
              Arr
                (List.filter_map
                   (fun (f, v) ->
                     if List.mem v values then
                       Some
                         (Obj
                            [ ("fact", Str (fact_to_string f));
                              ("value", Str (Truth.to_string v)) ])
                     else None)
                   cs.cs_entries) ) ]
    in
    Obj
      ([ ("schema", Str schema);
         ( "kb",
           Obj
             [ ("individuals", int cs.cs_individuals);
               ("concepts", int cs.cs_concepts);
               ("role_facts", int cs.cs_role_facts);
               ("tbox_axioms", int stats.Kb_stats.tbox_axioms);
               ("abox_axioms", int stats.Kb_stats.abox_axioms) ] );
         ("counts", counts_json cs);
         ("decided", int (decided cs));
         ("inconsistency_ratio", Num (inconsistency_ratio cs));
         ( "per_concept",
           Arr
             (List.map
                (fun (c, bc, dc) ->
                  Obj
                    [ ("concept", Str c);
                      ("B", int bc);
                      ("decided", int dc);
                      ( "b_rate",
                        Num
                          (if dc = 0 then 0.
                           else float_of_int bc /. float_of_int dc) ) ])
                (per_concept cs)) );
         ( "top_individuals",
           Arr
             (List.map
                (fun (a, n) ->
                  let p_inds, p_cons = provenance_of para cs a in
                  Obj
                    [ ("individual", Str a);
                      ("B", int n);
                      ( "provenance",
                        Obj
                          [ ("individuals", strs p_inds);
                            ("concepts", strs p_cons) ] ) ])
                (top_individuals cs ~k:top)) );
         ( "top_concepts",
           Arr
             (List.map
                (fun (c, n) -> Obj [ ("concept", Str c); ("B", int n) ])
                (top_concepts cs ~k:top)) ) ]
      @ exactly_fields))

let report_json ?top ?exactly para cs =
  Json_lite.to_string (report ?top ?exactly para cs)

(* ---- drift --------------------------------------------------------- *)

type transition = {
  tr_fact : fact;
  tr_from : Truth.t option;
  tr_to : Truth.t option;
}

let diff before after =
  let old = Hashtbl.create 64 in
  List.iter (fun (f, v) -> Hashtbl.replace old f v) before.cs_entries;
  let survived =
    List.filter_map
      (fun (f, v) ->
        match Hashtbl.find_opt old f with
        | Some v0 ->
            Hashtbl.remove old f;
            if Truth.equal v0 v then None
            else Some { tr_fact = f; tr_from = Some v0; tr_to = Some v }
        | None -> Some { tr_fact = f; tr_from = None; tr_to = Some v })
      after.cs_entries
  in
  let vanished =
    List.filter_map
      (fun (f, v) ->
        if Hashtbl.mem old f then
          Some { tr_fact = f; tr_from = Some v; tr_to = None }
        else None)
      before.cs_entries
  in
  survived @ vanished

let drift_line ?trace ~ts_unix ~before ~after () =
  match diff before after with
  | [] -> None
  | changed ->
      let side = function None -> "-" | Some v -> Truth.to_string v in
      let body =
        Json_lite.(
          to_string
            (Obj
               ((match trace with None -> [] | Some t -> [ ("trace", Str t) ])
               @ [ ( "changed",
                     Arr
                       (List.map
                          (fun tr ->
                            Obj
                              [ ("fact", Str (fact_to_string tr.tr_fact));
                                ("from", Str (side tr.tr_from));
                                ("to", Str (side tr.tr_to)) ])
                          changed) );
                   ("counts", counts_json after);
                   ("inconsistency_ratio", Num (inconsistency_ratio after)) ])))
      in
      (* the epoch leads with full ms precision, which the number rule's
         %.6g would truncate: spliced in ahead of the printed members *)
      Some
        (Printf.sprintf "{\"ts_unix\":%.3f,%s" ts_unix
           (String.sub body 1 (String.length body - 1)))
