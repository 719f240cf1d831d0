(* Differential suite for the cost-based CQ planner: under every atom
   order and join strategy, [Cq.run]'s output must be byte-identical to
   the [answers_naive] reference — on the paper examples, the shipped
   KBs and random in/out-of-fragment KBs.  Also: parser round-trips, the
   plan JSON's shape and a golden dl4-plan/1 line, and the adaptivity
   fallback (a deliberately mis-estimated plan stays correct). *)

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let kb_dir = Filename.concat (Filename.concat ".." "examples") "kb"

let load_example name =
  Surface.parse_kb4_exn (read (Filename.concat kb_dir name))

let answers_t =
  Alcotest.(list (pair (list string) (testable Truth.pp Truth.equal)))

let bindings_t =
  Alcotest.(
    list
      (pair
         (list (pair string string))
         (testable Truth.pp Truth.equal)))

(* every execution regime a plan can run under *)
let regimes =
  [ ("cost/adaptive", `Cost, None, None);
    ("cost/nested", `Cost, Some Cq.Plan.Nested_loop, None);
    ("cost/hash", `Cost, Some Cq.Plan.Hash_join, None);
    ("cost/threshold0", `Cost, None, Some 0);
    ("syntactic/adaptive", `Syntactic, None, None);
    ("syntactic/nested", `Syntactic, Some Cq.Plan.Nested_loop, None);
    ("syntactic/hash", `Syntactic, Some Cq.Plan.Hash_join, None) ]

let check_differential name kb queries =
  let para = Para.create kb in
  List.iter
    (fun q ->
      let expected = Cq.answers_naive para q in
      let expected_bindings = Cq.all_bindings_naive para q in
      List.iter
        (fun (regime, order, force, threshold) ->
          let plan = Cq.compile ?threshold ?force ~order para q in
          Alcotest.check answers_t
            (name ^ "/" ^ regime ^ " answers")
            expected (Cq.run plan);
          let plan' = Cq.compile ?threshold ?force ~order para q in
          Alcotest.check bindings_t
            (name ^ "/" ^ regime ^ " bindings")
            expected_bindings (Cq.run_bindings plan'))
        regimes)
    queries

(* queries touching every shape: single atom, star join, chain with a
   constant, filter atom over a bound pair, boolean (empty head) *)
let queries_over kb =
  let signature = Kb4.signature kb in
  let concepts =
    List.sort_uniq String.compare signature.Axiom.concepts
  in
  let roles = List.sort_uniq String.compare signature.Axiom.roles in
  let inds = signature.Axiom.individuals in
  let c i = Concept.Atom (List.nth concepts (i mod List.length concepts)) in
  let r i = Role.name (List.nth roles (i mod List.length roles)) in
  if concepts = [] || inds = [] then []
  else
    Cq.make ~head:[ "x" ] ~body:[ Cq.Concept_atom (c 0, Cq.Var "x") ]
    :: Cq.make ~head:[]
         ~body:[ Cq.Concept_atom (c 0, Cq.Ind (List.hd inds)) ]
    :: (if roles = [] then []
        else
          [ Cq.make ~head:[ "x"; "y" ]
              ~body:
                [ Cq.Concept_atom (c 0, Cq.Var "x");
                  Cq.Role_atom (r 0, Cq.Var "x", Cq.Var "y") ];
            Cq.make ~head:[ "y" ]
              ~body:
                [ Cq.Role_atom (r 0, Cq.Ind (List.hd inds), Cq.Var "y");
                  Cq.Concept_atom (c 1, Cq.Var "y") ];
            Cq.make ~head:[ "x" ]
              ~body:
                [ Cq.Concept_atom (c 0, Cq.Var "x");
                  Cq.Role_atom (r 0, Cq.Var "x", Cq.Var "y");
                  Cq.Concept_atom (c 1, Cq.Var "y");
                  Cq.Role_atom (r 0, Cq.Var "x", Cq.Var "x") ] ])

let paper_tests =
  List.map
    (fun (name, kb) ->
      Alcotest.test_case name `Quick (fun () ->
          check_differential name kb (queries_over kb)))
    [ ("example1", Paper_examples.example1);
      ("example2", Paper_examples.example2);
      ("example3", Paper_examples.example3);
      ("example4", Paper_examples.example4) ]

let shipped_tests =
  List.map
    (fun file ->
      Alcotest.test_case file `Quick (fun () ->
          let kb = load_example file in
          check_differential file kb (queries_over kb)))
    [ "example1.dl4"; "access_control.dl4"; "tweety.dl4" ]

(* random KBs: in-fragment (no negation — Horn/EL eligible) and
   out-of-fragment (negation + injected contradictions) *)
let random_kb ~seed ~allow_negation =
  let kb =
    Gen.kb4
      { Gen.default with
        Gen.seed;
        n_concepts = 4;
        n_roles = 2;
        n_individuals = 5;
        n_tbox = 5;
        n_abox = 10;
        max_depth = 2;
        inconsistency_rate = (if allow_negation then 0.3 else 0.0);
        allow_negation }
  in
  if allow_negation then Gen.inject_contradictions ~seed ~count:2 kb else kb

let random_tests =
  List.concat_map
    (fun seed ->
      [ Alcotest.test_case
          (Printf.sprintf "random in-fragment (seed %d)" seed)
          `Quick
          (fun () ->
            let kb = random_kb ~seed ~allow_negation:false in
            check_differential "in-fragment" kb (queries_over kb));
        Alcotest.test_case
          (Printf.sprintf "random out-of-fragment (seed %d)" seed)
          `Quick
          (fun () ->
            let kb = random_kb ~seed ~allow_negation:true in
            check_differential "out-of-fragment" kb (queries_over kb)) ])
    [ 7; 42 ]

(* A deliberately mis-estimated plan: syntactic order puts the huge atom
   first, and a zero threshold mis-routes even one-row binding sets into
   hash joins.  Adaptivity must keep the answers identical anyway. *)
let adaptivity_tests =
  [ Alcotest.test_case "mis-estimated plan stays correct" `Quick (fun () ->
        let kb = Paper_examples.example1 in
        let para = Para.create kb in
        let q =
          Cq.make ~head:[ "x"; "y" ]
            ~body:
              [ Cq.Role_atom (Role.name "hasPatient", Cq.Var "x", Cq.Var "y");
                Cq.Concept_atom (Concept.Atom "Patient", Cq.Var "y") ]
        in
        let expected = Cq.answers_naive para q in
        List.iter
          (fun force ->
            let plan =
              Cq.compile ~order:`Syntactic ~threshold:0 ?force para q
            in
            Alcotest.check answers_t "mis-estimated answers" expected
              (Cq.run plan))
          [ None; Some Cq.Plan.Nested_loop; Some Cq.Plan.Hash_join ]);
    Alcotest.test_case "strategy counts reflect execution" `Quick (fun () ->
        let para = Para.create Paper_examples.example1 in
        let q =
          Cq.make ~head:[ "x" ]
            ~body:[ Cq.Concept_atom (Concept.Atom "Doctor", Cq.Var "x") ]
        in
        let plan = Cq.compile ~force:Cq.Plan.Hash_join para q in
        Alcotest.(check (list (pair string int)))
          "not executed yet" [] (Cq.strategy_counts plan);
        ignore (Cq.run plan);
        Alcotest.(check (list (pair string int)))
          "one hash-join pick"
          [ ("hash_join", 1) ]
          (Cq.strategy_counts plan));
    Alcotest.test_case "skewed KB: the cost plan pays fewer probes" `Quick
      (fun () ->
        let kb = Bench_kb.common_rare ~commons:40 ~poisoned:(fun _ -> false) in
        let parse src =
          match Cq.parse src with Ok q -> q | Error e -> Alcotest.fail e
        in
        (* written common-first, the worst order a naive planner inherits;
           and a chain whose fan-in makes the hash side cheaper *)
        let q = parse "?x, ?y <- Common(?x), links(?x, ?y), Rare(?y)" in
        let chain = parse "?x <- Rare(?z), links(?y, ?z), links(?x, ?y)" in
        (* every run on a cold session: no verdict has been timed, so
           every probe costs the fixed fallback and the plan and its
           probe count are deterministic *)
        let run ?threshold ?force order query =
          let s = Session.create kb in
          let plan = Cq.compile ?threshold ?force ~order s query in
          let answers = Cq.run plan in
          let t = Session.cost_totals s in
          (answers, t.Oracle.verdicts + t.Oracle.cache_served,
           Cq.strategy_counts plan)
        in
        let plan_ans, plan_probes, _ = run `Cost q in
        let syn_ans, syn_probes, _ = run `Syntactic q in
        Alcotest.check answers_t "cost = naive"
          (Cq.answers_naive (Session.create kb) q) plan_ans;
        Alcotest.check answers_t "syntactic = naive" plan_ans syn_ans;
        Alcotest.(check bool)
          (Printf.sprintf "%d syntactic probes <= 3456 * 1.05" syn_probes)
          true
          (float_of_int syn_probes <= 3456. *. 1.05);
        Alcotest.(check bool)
          (Printf.sprintf "%d cost-plan probes <= 264 * 1.05" plan_probes)
          true
          (float_of_int plan_probes <= 264. *. 1.05);
        Alcotest.(check bool)
          (Printf.sprintf "syntactic/cost probes %d/%d >= 1.3" syn_probes
             plan_probes)
          true
          (float_of_int syn_probes >= 1.3 *. float_of_int (max 1 plan_probes));
        let hash_ans, _, strategies = run ~threshold:2 `Cost chain in
        let nested_ans, _, _ = run ~force:Cq.Plan.Nested_loop `Cost chain in
        Alcotest.check answers_t "hash join = nested loop" nested_ans hash_ans;
        Alcotest.(check bool) "the adaptive pick lands on hash_join" true
          (Option.value ~default:0 (List.assoc_opt "hash_join" strategies)
           >= 1)) ]

let parse_tests =
  [ Alcotest.test_case "parse with head" `Quick (fun () ->
        match Cq.parse "?x, ?y <- Doctor(?x), hasPatient(?x, ?y)" with
        | Error e -> Alcotest.fail e
        | Ok q ->
            Alcotest.(check (list string)) "head" [ "x"; "y" ] q.Cq.head;
            Alcotest.(check int) "atoms" 2 (List.length q.Cq.body));
    Alcotest.test_case "parse without head projects all vars sorted" `Quick
      (fun () ->
        match Cq.parse "Doctor(?b), hasPatient(?b, ?a)" with
        | Error e -> Alcotest.fail e
        | Ok q -> Alcotest.(check (list string)) "head" [ "a"; "b" ] q.Cq.head);
    Alcotest.test_case "parse constants, inverse roles, complex concepts"
      `Quick (fun () ->
        match
          Cq.parse "?x <- (Doctor & ~Surgeon)(?x), hasPatient^-(mary, ?x)"
        with
        | Error e -> Alcotest.fail e
        | Ok q -> (
            match q.Cq.body with
            | [ Cq.Concept_atom (Concept.And _, Cq.Var "x");
                Cq.Role_atom (Role.Inv "hasPatient", Cq.Ind "mary", Cq.Var "x")
              ] ->
                ()
            | _ -> Alcotest.fail "unexpected parse"));
    Alcotest.test_case "to_string round-trips" `Quick (fun () ->
        let src = "?x, ?y <- Doctor(?x), hasPatient(?x, ?y), Patient(?y)" in
        match Cq.parse src with
        | Error e -> Alcotest.fail e
        | Ok q -> (
            match Cq.parse (Cq.to_string q) with
            | Error e -> Alcotest.fail e
            | Ok q' ->
                Alcotest.(check string)
                  "round-trip" (Cq.to_string q) (Cq.to_string q')));
    Alcotest.test_case "head variable not in body is rejected" `Quick
      (fun () ->
        match Cq.parse "?z <- Doctor(?x)" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "malformed atoms are rejected" `Quick (fun () ->
        List.iter
          (fun src ->
            match Cq.parse src with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail ("expected error for " ^ src))
          [ ""; "Doctor"; "Doctor()"; "r(?x, ?y, ?z)"; "?x <-" ]) ]

let json_tests =
  [ Alcotest.test_case "plan JSON parses and carries the schema" `Quick
      (fun () ->
        let para = Para.create Paper_examples.example1 in
        let q =
          Cq.make ~head:[ "x"; "y" ]
            ~body:
              [ Cq.Concept_atom (Concept.Atom "Doctor", Cq.Var "x");
                Cq.Role_atom (Role.name "hasPatient", Cq.Var "x", Cq.Var "y")
              ]
        in
        let plan = Cq.compile para q in
        let check_json ~executed js =
          match Json_lite.parse js with
          | Error msg -> Alcotest.fail ("unparsable plan JSON: " ^ msg)
          | Ok j ->
              Alcotest.(check (option string))
                "schema" (Some "dl4-plan/1")
                (Option.bind (Json_lite.member "schema" j) Json_lite.to_str);
              Alcotest.(check (option bool))
                "executed" (Some executed)
                (match Json_lite.member "executed" j with
                | Some (Json_lite.Bool b) -> Some b
                | _ -> None);
              Alcotest.(check (option int))
                "steps" (Some 2)
                (Option.map List.length
                   (Option.bind (Json_lite.member "steps" j) Json_lite.to_list))
        in
        check_json ~executed:false (Cq.explain_json plan);
        ignore (Cq.run plan);
        check_json ~executed:true (Cq.explain_json plan));
    Alcotest.test_case "explain is stable across compiles" `Quick (fun () ->
        let para = Para.create Paper_examples.example1 in
        let q =
          Cq.make ~head:[ "x" ]
            ~body:[ Cq.Concept_atom (Concept.Atom "Doctor", Cq.Var "x") ]
        in
        Alcotest.(check string)
          "same plan JSON"
          (Cq.explain_json (Cq.compile para q))
          (Cq.explain_json (Cq.compile para q)));
    Alcotest.test_case "example1 executed plan = golden" `Quick (fun () ->
        (* a compile on a fresh session is deterministic: no verdict has
           been timed yet, so every probe costs the fixed fallback *)
        let para = Para.create (load_example "example1.dl4") in
        match Cq.parse "?x, ?y <- Doctor(?x), hasPatient(?x, ?y)" with
        | Error msg -> Alcotest.fail msg
        | Ok q ->
            let plan = Cq.compile para q in
            ignore (Cq.run plan);
            Alcotest.(check string)
              "dl4-plan/1 line"
              (read (Filename.concat "golden" "example1.plan.json"))
              (Cq.explain_json plan ^ "\n")) ]

(* property: planner ≡ naive on random small KBs and a random 2-atom query *)
let prop_planner_matches_naive =
  QCheck.Test.make ~count:20 ~name:"planner matches naive on random KBs"
    QCheck.(make QCheck.Gen.(int_range 0 1000))
    (fun seed ->
      let kb = random_kb ~seed ~allow_negation:(seed mod 2 = 0) in
      let para = Para.create kb in
      List.for_all
        (fun q ->
          let expected = Cq.answers_naive para q in
          List.for_all
            (fun (_, order, force, threshold) ->
              Cq.run (Cq.compile ?threshold ?force ~order para q) = expected)
            regimes)
        (queries_over kb))

let () =
  Alcotest.run "planner"
    [ ("paper-examples", paper_tests);
      ("shipped-kbs", shipped_tests);
      ("random-kbs", random_tests);
      ("adaptivity", adaptivity_tests);
      ("parse", parse_tests);
      ("plan-json", json_tests);
      ("properties", [ QCheck_alcotest.to_alcotest prop_planner_matches_naive ])
    ]
