(* Every boolean entailment verdict of this module is an [Oracle.check]
   on the session's oracle (the cache-owning choke point); there are no
   direct tableau calls in the query paths below. *)

type t = Session.t

let create = Session.create
let of_session t = t
let classical_reasoner t = Oracle.reasoner (Session.oracle t)
let satisfiable t = Session.check t Oracle.Consistent
let entails_instance t a c = Session.check t (Oracle.Instance (a, c))
let entails_not_instance t a c = Session.check t (Oracle.Not_instance (a, c))

let instance_truth t a c =
  Truth.of_pair
    ~told_true:(entails_instance t a c)
    ~told_false:(entails_not_instance t a c)

let role_truth t a r b =
  Truth.of_pair
    ~told_true:(Session.check t (Oracle.Role_pos (a, r, b)))
    ~told_false:(Session.check t (Oracle.Role_neg (a, r, b)))

let signature_atoms t =
  (* [Axiom.signature] already deduplicates, but classification would pay
     every duplicate with a full row of tableau calls — keep the guarantee
     local *)
  List.sort_uniq String.compare (Kb4.signature (Session.kb t)).concepts

let classify_naive t =
  let atoms = signature_atoms t in
  List.map
    (fun a ->
      let candidates = List.filter (fun b -> b <> a) atoms in
      (a, List.filter (Session.subsumes t a) candidates))
    atoms

(* Batched grid evaluation: both information bits of every pair are
   submitted to the oracle as one batch, and repeated pairs share one
   verdict. *)
let instance_truths t pairs =
  let sp = Obs.enter ~cat:"core" "para.grid" in
  if Obs.live sp then Obs.set_attr sp "pairs" (string_of_int (List.length pairs));
  let queries =
    List.concat_map
      (fun (a, c) -> [ Oracle.Instance (a, c); Oracle.Not_instance (a, c) ])
      pairs
  in
  let verdicts =
    Fun.protect
      ~finally:(fun () -> Obs.exit_span sp)
      (fun () -> Oracle.check_all (Session.oracle t) queries)
  in
  let rec zip pairs verdicts =
    match (pairs, verdicts) with
    | [], [] -> []
    | (a, c) :: ps, told_true :: told_false :: vs ->
        (a, c, Truth.of_pair ~told_true ~told_false) :: zip ps vs
    | _ -> assert false
  in
  zip pairs verdicts

(* The role-edge twin of [instance_truths], for the planner's hash-join
   materialization: both information bits of every triple go out as one
   batch. *)
let role_truths t triples =
  let sp = Obs.enter ~cat:"core" "para.role_grid" in
  if Obs.live sp then
    Obs.set_attr sp "triples" (string_of_int (List.length triples));
  let queries =
    List.concat_map
      (fun (a, r, b) -> [ Oracle.Role_pos (a, r, b); Oracle.Role_neg (a, r, b) ])
      triples
  in
  let verdicts =
    Fun.protect
      ~finally:(fun () -> Obs.exit_span sp)
      (fun () -> Oracle.check_all (Session.oracle t) queries)
  in
  let rec zip triples verdicts =
    match (triples, verdicts) with
    | [], [] -> []
    | (a, r, b) :: ts, told_true :: told_false :: vs ->
        (a, r, b, Truth.of_pair ~told_true ~told_false) :: zip ts vs
    | _ -> assert false
  in
  zip triples verdicts

let grid_pairs (signature : Axiom.signature) =
  List.concat_map
    (fun a -> List.map (fun c -> (a, c)) signature.Axiom.concepts)
    signature.Axiom.individuals

let contradictions t =
  let pairs = grid_pairs (Kb4.signature (Session.kb t)) in
  List.filter_map
    (fun ((a, c), (_, _, v)) ->
      match v with
      | Truth.Both -> Some (a, c)
      | Truth.True | Truth.False | Truth.Neither -> None)
    (List.combine pairs
       (instance_truths t
          (List.map (fun (a, c) -> (a, Concept.Atom c)) pairs)))

let truth_table t ~individuals ~concepts =
  List.map
    (fun a ->
      ( a,
        List.map
          (fun (_, c, v) -> (c, v))
          (instance_truths t (List.map (fun c -> (a, c)) concepts)) ))
    individuals

let retrieve t c =
  List.map
    (fun (a, _, v) -> (a, v))
    (instance_truths t
       (List.map (fun a -> (a, c)) (Kb4.signature (Session.kb t)).individuals))

let retrieve_naive t c =
  List.map
    (fun a -> (a, instance_truth t a c))
    (Kb4.signature (Session.kb t)).individuals

let retrieve_instances t c =
  List.filter_map
    (fun (a, v) -> if Truth.designated v then Some a else None)
    (retrieve t c)

let inconsistency_degree t =
  let pairs = grid_pairs (Kb4.signature (Session.kb t)) in
  let informative = ref 0 and contradictory = ref 0 in
  List.iter
    (fun (_, _, v) ->
      match v with
      | Truth.Both ->
          incr informative;
          incr contradictory
      | Truth.True | Truth.False -> incr informative
      | Truth.Neither -> ())
    (instance_truths t (List.map (fun (a, c) -> (a, Concept.Atom c)) pairs));
  if !informative = 0 then 0.
  else float_of_int !contradictory /. float_of_int !informative

let find_model4 t =
  match Reasoner.find_model (classical_reasoner t) with
  | None -> None
  | Some m ->
      let candidate =
        Induced.four_of_classical ~signature:(Kb4.signature (Session.kb t)) m
      in
      if Interp4.is_model candidate (Session.kb t) then Some candidate else None
