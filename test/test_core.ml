(* Tests for the Para reasoner: the public paraconsistent API. *)

open Concept

let tv = Alcotest.testable Truth.pp Truth.equal

let kb_of src = Surface.parse_kb4_exn src

let instance_truth_tests =
  [ Alcotest.test_case "all four values in one KB" `Quick (fun () ->
        let t =
          Para.create
            (kb_of
               {| A < B.
                  x : A.
                  x : C.
                  x : ~C.
                  x : ~D. |})
        in
        Alcotest.check tv "A = t" Truth.True (Para.instance_truth t "x" (Atom "A"));
        Alcotest.check tv "B = t (derived)" Truth.True
          (Para.instance_truth t "x" (Atom "B"));
        Alcotest.check tv "C = TOP" Truth.Both (Para.instance_truth t "x" (Atom "C"));
        Alcotest.check tv "D = f" Truth.False (Para.instance_truth t "x" (Atom "D"));
        Alcotest.check tv "E = BOT" Truth.Neither
          (Para.instance_truth t "x" (Atom "E")));
    Alcotest.test_case "complex query concepts" `Quick (fun () ->
        let t =
          Para.create
            (kb_of {| x : A. x : ~B. r(x, y). y : A. |})
        in
        Alcotest.check tv "A & ~B = t" Truth.True
          (Para.instance_truth t "x" (And (Atom "A", Not (Atom "B"))));
        Alcotest.check tv "some r.A = t" Truth.True
          (Para.instance_truth t "x" (Exists (Role.name "r", Atom "A")));
        Alcotest.check tv "A | B = t" Truth.True
          (Para.instance_truth t "x" (Or (Atom "A", Atom "B"))));
    Alcotest.test_case "negation of query flips the value" `Quick (fun () ->
        let t = Para.create (kb_of "x : A. x : ~B.") in
        Alcotest.check tv "~A = f" Truth.False
          (Para.instance_truth t "x" (Not (Atom "A")));
        Alcotest.check tv "~B = t" Truth.True
          (Para.instance_truth t "x" (Not (Atom "B"))));
    Alcotest.test_case "internal inclusion does not contrapose" `Quick
      (fun () ->
        (* B < F and told ~F: the contradiction lands on F (told B pushes
           F+), while B itself stays cleanly true — internal inclusion has
           no contraposition back to ~B *)
        let t = Para.create (kb_of "B < F. x : ~F. x : B.") in
        Alcotest.check tv "F = TOP" Truth.Both
          (Para.instance_truth t "x" (Atom "F"));
        Alcotest.check tv "B = t" Truth.True
          (Para.instance_truth t "x" (Atom "B"));
        let t2 = Para.create (kb_of "B < F. x : ~F.") in
        Alcotest.check tv "without told B: ~B NOT derived" Truth.Neither
          (Para.instance_truth t2 "x" (Atom "B")));
    Alcotest.test_case "strong inclusion contraposes" `Quick (fun () ->
        let t = Para.create (kb_of "B -> F. x : ~F.") in
        Alcotest.check tv "B = f (contraposition)" Truth.False
          (Para.instance_truth t "x" (Atom "B")))
  ]

let satisfiability_tests =
  [ Alcotest.test_case "plain contradictions are 4-satisfiable" `Quick
      (fun () ->
        Alcotest.(check bool)
          "sat" true
          (Para.satisfiable (Para.create (kb_of "x : A. x : ~A."))));
    Alcotest.test_case "Bottom assertion is 4-unsatisfiable" `Quick (fun () ->
        Alcotest.(check bool)
          "unsat" false
          (Para.satisfiable (Para.create (kb_of "x : Bottom."))));
    Alcotest.test_case "number restrictions never clash with told edges"
      `Quick (fun () ->
        (* Table 2: x ∈ proj⁺(≤1.r) counts the NON-NEGATED successors, and
           an edge may be told-present and told-absent at once, so even this
           KB has a four-valued model (everything negated). *)
        Alcotest.(check bool)
          "sat" true
          (Para.satisfiable
             (Para.create
                (kb_of
                   {| x : <= 1 r.
                      r(x, y). r(x, z). y != z. |}))));
    Alcotest.test_case "datatype violations are 4-unsatisfiable" `Quick
      (fun () ->
        (* datatypes keep two-valued semantics, so they can genuinely clash *)
        Alcotest.(check bool)
          "unsat" false
          (Para.satisfiable
             (Para.create (kb_of {| u(a, 5). a : only u:int[0..4]. |}))));
    Alcotest.test_case "distinctness clash is 4-unsatisfiable" `Quick
      (fun () ->
        Alcotest.(check bool)
          "unsat" false
          (Para.satisfiable (Para.create (kb_of "a = b. a != b."))))
  ]

let role_truth_tests =
  [ Alcotest.test_case "asserted role is told-true" `Quick (fun () ->
        let t = Para.create (kb_of "r(a, b).") in
        Alcotest.check tv "t" Truth.True (Para.role_truth t "a" (Role.name "r") "b"));
    Alcotest.test_case "unasserted role is BOT" `Quick (fun () ->
        let t = Para.create (kb_of "r(a, b).") in
        Alcotest.check tv "BOT" Truth.Neither
          (Para.role_truth t "b" (Role.name "r") "a"));
    Alcotest.test_case "role inclusion propagates told edges" `Quick (fun () ->
        let t = Para.create (kb_of "role r < s. r(a, b).") in
        Alcotest.check tv "s told-true" Truth.True
          (Para.role_truth t "a" (Role.name "s") "b"))
  ]

let classify_tests =
  [ Alcotest.test_case "internal hierarchy" `Quick (fun () ->
        let t = Para.create (kb_of "A < B. B < C. x : A.") in
        let hierarchy = Session.classify t in
        Alcotest.(check (slist string String.compare))
          "A's supers" [ "B"; "C" ]
          (List.assoc "A" hierarchy);
        Alcotest.(check (list string)) "C's supers" [] (List.assoc "C" hierarchy));
    Alcotest.test_case "hierarchy survives contradictions elsewhere" `Quick
      (fun () ->
        let t = Para.create (kb_of "A < B. x : C. x : ~C. y : A.") in
        Alcotest.(check (slist string String.compare))
          "A < B still holds" [ "B" ]
          (List.assoc "A" (Session.classify t)))
  ]

let taxonomy_tests =
  [ Alcotest.test_case "chain reduces to direct edges" `Quick (fun () ->
        let t = Para.create (kb_of "A < B. B < C. A < C. x : A.") in
        let taxonomy = Session.taxonomy t in
        let direct_of a =
          snd (List.find (fun (cls, _) -> List.mem a cls) taxonomy)
        in
        Alcotest.(check (list string)) "A -> B only" [ "B" ] (direct_of "A");
        Alcotest.(check (list string)) "B -> C" [ "C" ] (direct_of "B");
        Alcotest.(check (list string)) "C is a root" [] (direct_of "C"));
    Alcotest.test_case "equivalent concepts group into one class" `Quick
      (fun () ->
        let t = Para.create (kb_of "A < B. B < A. B < C. x : A.") in
        let taxonomy = Session.taxonomy t in
        let cls = List.find (fun (cls, _) -> List.mem "A" cls) taxonomy in
        Alcotest.(check (slist string String.compare))
          "A and B together" [ "A"; "B" ] (fst cls);
        Alcotest.(check (list string)) "above them: C" [ "C" ] (snd cls));
    Alcotest.test_case "diamond keeps both direct parents" `Quick (fun () ->
        let t =
          Para.create (kb_of "A < B. A < C. B < D. C < D. x : A.")
        in
        let direct_of a =
          snd
            (List.find (fun (cls, _) -> List.mem a cls) (Session.taxonomy t))
        in
        Alcotest.(check (slist string String.compare))
          "A under B and C" [ "B"; "C" ] (direct_of "A"))
  ]

let retrieval_tests =
  [ Alcotest.test_case "retrieve classifies all individuals" `Quick (fun () ->
        let t = Para.create (kb_of "x : A. y : ~A. z : A. z : ~A. w : B.") in
        let values = Para.retrieve t (Atom "A") in
        Alcotest.check tv "x" Truth.True (List.assoc "x" values);
        Alcotest.check tv "y" Truth.False (List.assoc "y" values);
        Alcotest.check tv "z" Truth.Both (List.assoc "z" values);
        Alcotest.check tv "w" Truth.Neither (List.assoc "w" values));
    Alcotest.test_case "retrieve_instances keeps designated values" `Quick
      (fun () ->
        let t = Para.create (kb_of "x : A. y : ~A. z : A. z : ~A.") in
        Alcotest.(check (slist string String.compare))
          "instances" [ "x"; "z" ]
          (Para.retrieve_instances t (Atom "A")));
    Alcotest.test_case "retrieval through TBox" `Quick (fun () ->
        let t = Para.create (kb_of "A < B. x : A. y : B.") in
        Alcotest.(check (slist string String.compare))
          "B instances" [ "x"; "y" ]
          (Para.retrieve_instances t (Atom "B")))
  ]

let inconsistency_degree_tests =
  [ Alcotest.test_case "clean KB has degree 0" `Quick (fun () ->
        let t = Para.create (kb_of "A < B. x : A.") in
        Alcotest.(check (float 1e-9)) "zero" 0.0 (Para.inconsistency_degree t));
    Alcotest.test_case "fully contradictory KB has degree 1" `Quick (fun () ->
        let t = Para.create (kb_of "x : A. x : ~A.") in
        Alcotest.(check (float 1e-9)) "one" 1.0 (Para.inconsistency_degree t));
    Alcotest.test_case "mixed KB has intermediate degree" `Quick (fun () ->
        (* grid: A(x)=TOP, B(x)=t -> 1 contradiction / 2 informative *)
        let t = Para.create (kb_of "x : A. x : ~A. x : B.") in
        Alcotest.(check (float 1e-9)) "half" 0.5 (Para.inconsistency_degree t));
    Alcotest.test_case "empty KB degree 0" `Quick (fun () ->
        let t = Para.create Kb4.empty in
        Alcotest.(check (float 1e-9)) "zero" 0.0 (Para.inconsistency_degree t))
  ]

let truth_table_tests =
  [ Alcotest.test_case "grid evaluation" `Quick (fun () ->
        let t = Para.create (kb_of "x : A. y : ~A.") in
        let table =
          Para.truth_table t ~individuals:[ "x"; "y" ]
            ~concepts:[ Atom "A"; Not (Atom "A") ]
        in
        match table with
        | [ ("x", [ (_, vx1); (_, vx2) ]); ("y", [ (_, vy1); (_, vy2) ]) ] ->
            Alcotest.check tv "x:A" Truth.True vx1;
            Alcotest.check tv "x:~A" Truth.False vx2;
            Alcotest.check tv "y:A" Truth.False vy1;
            Alcotest.check tv "y:~A" Truth.True vy2
        | _ -> Alcotest.fail "shape")
  ]

let agreement_tests =
  [ Alcotest.test_case
      "on consistent KBs, 4-valued and classical instance checks agree on \
       told-positive queries"
      `Quick (fun () ->
        let src = {| A < B. B < C. x : A. y : ~C. r(x, y). |} in
        let t = Para.create (kb_of src) in
        let classical =
          Surface.parse_kb_exn
            {| A << B. B << C. x : A. y : ~C. r(x, y). |}
        in
        let r = Reasoner.create classical in
        List.iter
          (fun (ind, c) ->
            let classical_yes = Reasoner.instance_of r ind c in
            let four_yes = Para.entails_instance t ind c in
            Alcotest.(check bool)
              (Printf.sprintf "%s : %s" ind (Concept.to_string c))
              classical_yes four_yes)
          [ ("x", Atom "A"); ("x", Atom "B"); ("x", Atom "C");
            ("y", Atom "A") ])
  ]

let () =
  Alcotest.run "core"
    [ ("instance-truth", instance_truth_tests);
      ("satisfiability", satisfiability_tests);
      ("role-truth", role_truth_tests);
      ("classify", classify_tests);
      ("taxonomy", taxonomy_tests);
      ("retrieval", retrieval_tests);
      ("inconsistency-degree", inconsistency_degree_tests);
      ("truth-table", truth_table_tests);
      ("agreement", agreement_tests) ]
