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

(* hand-rolled JSON, like every export sink in this stack *)
let jstr b s = Buffer.add_string b ("\"" ^ Obs.json_escape s ^ "\"")

let jlist b xs f =
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      f x)
    xs;
  Buffer.add_char b ']'

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

let report_json ?(top = 5) ?exactly para cs =
  let b = Buffer.create 1024 in
  let stats = Kb_stats.of_kb4 (Session.kb para) in
  Buffer.add_string b "{\"schema\":";
  jstr b schema;
  Buffer.add_string b ",\"kb\":{\"individuals\":";
  Buffer.add_string b (string_of_int cs.cs_individuals);
  Buffer.add_string b ",\"concepts\":";
  Buffer.add_string b (string_of_int cs.cs_concepts);
  Buffer.add_string b ",\"role_facts\":";
  Buffer.add_string b (string_of_int cs.cs_role_facts);
  Buffer.add_string b ",\"tbox_axioms\":";
  Buffer.add_string b (string_of_int stats.Kb_stats.tbox_axioms);
  Buffer.add_string b ",\"abox_axioms\":";
  Buffer.add_string b (string_of_int stats.Kb_stats.abox_axioms);
  Buffer.add_string b "},\"counts\":{";
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      jstr b (Truth.short_string v);
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int (count cs v)))
    Truth.all;
  Buffer.add_string b "},\"decided\":";
  Buffer.add_string b (string_of_int (decided cs));
  Buffer.add_string b ",\"inconsistency_ratio\":";
  Buffer.add_string b (Obs.json_float (inconsistency_ratio cs));
  Buffer.add_string b ",\"per_concept\":";
  jlist b (per_concept cs) (fun (c, bc, dc) ->
      Buffer.add_string b "{\"concept\":";
      jstr b c;
      Buffer.add_string b ",\"B\":";
      Buffer.add_string b (string_of_int bc);
      Buffer.add_string b ",\"decided\":";
      Buffer.add_string b (string_of_int dc);
      Buffer.add_string b ",\"b_rate\":";
      Buffer.add_string b
        (Obs.json_float
           (if dc = 0 then 0. else float_of_int bc /. float_of_int dc));
      Buffer.add_char b '}');
  Buffer.add_string b ",\"top_individuals\":";
  jlist b (top_individuals cs ~k:top) (fun (a, n) ->
      let p_inds, p_cons = provenance_of para cs a in
      Buffer.add_string b "{\"individual\":";
      jstr b a;
      Buffer.add_string b ",\"B\":";
      Buffer.add_string b (string_of_int n);
      Buffer.add_string b ",\"provenance\":{\"individuals\":";
      jlist b p_inds (jstr b);
      Buffer.add_string b ",\"concepts\":";
      jlist b p_cons (jstr b);
      Buffer.add_string b "}}");
  Buffer.add_string b ",\"top_concepts\":";
  jlist b (top_concepts cs ~k:top) (fun (c, n) ->
      Buffer.add_string b "{\"concept\":";
      jstr b c;
      Buffer.add_string b ",\"B\":";
      Buffer.add_string b (string_of_int n);
      Buffer.add_char b '}');
  (match exactly with
  | None -> ()
  | Some values ->
      Buffer.add_string b ",\"exactly\":";
      jlist b values (fun v -> jstr b (Truth.short_string v));
      Buffer.add_string b ",\"facts\":";
      jlist b
        (List.filter (fun (_, v) -> List.mem v values) cs.cs_entries)
        (fun (f, v) ->
          Buffer.add_string b "{\"fact\":";
          jstr b (fact_to_string f);
          Buffer.add_string b ",\"value\":";
          jstr b (Truth.to_string v);
          Buffer.add_char b '}'));
  Buffer.add_char b '}';
  Buffer.contents b

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
      let b = Buffer.create 256 in
      let side = function
        | None -> "-"
        | Some v -> Truth.to_string v
      in
      Buffer.add_string b "{\"ts_unix\":";
      (* epoch with full ms precision: json_float's %.6g would truncate *)
      Buffer.add_string b (Printf.sprintf "%.3f" ts_unix);
      (match trace with
      | None -> ()
      | Some t ->
          Buffer.add_string b ",\"trace\":";
          jstr b t);
      Buffer.add_string b ",\"changed\":";
      jlist b changed (fun tr ->
          Buffer.add_string b "{\"fact\":";
          jstr b (fact_to_string tr.tr_fact);
          Buffer.add_string b ",\"from\":";
          jstr b (side tr.tr_from);
          Buffer.add_string b ",\"to\":";
          jstr b (side tr.tr_to);
          Buffer.add_char b '}');
      Buffer.add_string b ",\"counts\":{";
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          jstr b (Truth.short_string v);
          Buffer.add_char b ':';
          Buffer.add_string b (string_of_int (count after v)))
        Truth.all;
      Buffer.add_string b "},\"inconsistency_ratio\":";
      Buffer.add_string b (Obs.json_float (inconsistency_ratio after));
      Buffer.add_char b '}';
      Some (Buffer.contents b)
