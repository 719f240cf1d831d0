(* Fixed KBs that more than one tier-1 test checks; their count bounds
   are baselines measured on these exact KBs.  [s7], [s9] and
   [common_rare ~commons:40] are also the KBs bench S7, S9/S11 and S12
   time, and must stay equal to their copies in bench/main.ml. *)

let gen ~seed ~n_concepts ~n_individuals ~n_tbox ~n_abox =
  Gen.kb4
    { Gen.default with
      seed;
      n_concepts;
      n_individuals;
      n_tbox;
      n_abox;
      max_depth = 1;
      inconsistency_rate = 0.1 }

(* S7's: one classify of it is the overhead workload *)
let s7 () = gen ~seed:29 ~n_concepts:14 ~n_individuals:10 ~n_tbox:20 ~n_abox:24

(* S9's and S11's: a warm daemon serves its full atomic grid *)
let s9 () = gen ~seed:41 ~n_concepts:10 ~n_individuals:8 ~n_tbox:14 ~n_abox:18

(* A skewed KB: [commons] Common individuals, 2 Rare ones and a sparse
   links role between them.  [poisoned i] also makes the i-th Common
   individual ~Common. *)
let common_rare ~commons ~poisoned =
  let common =
    List.init commons (fun i ->
        Axiom.Instance_of (Printf.sprintf "c%d" i, Concept.Atom "Common"))
  in
  let poisons =
    List.filteri (fun i _ -> poisoned i) common
    |> List.map (function
         | Axiom.Instance_of (a, c) -> Axiom.Instance_of (a, Concept.Not c)
         | ax -> ax)
  in
  let rares =
    [ Axiom.Instance_of ("r0", Concept.Atom "Rare");
      Axiom.Instance_of ("r1", Concept.Atom "Rare") ]
  in
  let links =
    List.map
      (fun (a, b) -> Axiom.Role_assertion (a, Role.name "links", b))
      [ ("c0", "r0"); ("c0", "r1"); ("c1", "r0");
        ("c1", "r1"); ("c2", "r0"); ("c3", "r1") ]
  in
  Kb4.make
    ~tbox:
      [ Kb4.Concept_inclusion
          (Kb4.Internal, Concept.Atom "Rare", Concept.Atom "Flagged") ]
    ~abox:(common @ poisons @ rares @ links)
