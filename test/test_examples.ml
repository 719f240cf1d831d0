(* Integration tests reproducing the paper's worked examples (§1, §3.3,
   §4.2): Examples 1-5 and Table 4.  Expected answers are taken verbatim
   from the paper text. *)

open Concept

let tv = Alcotest.testable Truth.pp Truth.equal

(* ------------------------------------------------------------------ *)
(* Example 1: inconsistent medical ABox *)

let example1_tests =
  let t = Para.create Paper_examples.example1 in
  [ Alcotest.test_case "KB is four-valued satisfiable" `Quick (fun () ->
        Alcotest.(check bool) "sat" true (Para.satisfiable t));
    Alcotest.test_case "classical reading is inconsistent (trivial)" `Quick
      (fun () ->
        let classical =
          Axiom.make
            ~tbox:
              [ Axiom.Concept_sub
                  ( Exists (Role.name "hasPatient", Atom "Patient"),
                    Atom "Doctor" ) ]
            ~abox:(Paper_examples.example1 : Kb4.t).abox
        in
        let r = Reasoner.create classical in
        Alcotest.(check bool) "inconsistent" false (Reasoner.is_consistent r);
        (* ... from which everything follows, even irrelevant facts *)
        Alcotest.(check bool)
          "trivially entails Patient(john)" true
          (Reasoner.instance_of r "john" (Atom "Patient")));
    Alcotest.test_case "information that bill is a doctor: yes" `Quick
      (fun () ->
        Alcotest.(check bool)
          "positive" true
          (Para.entails_instance t "bill" (Atom "Doctor")));
    Alcotest.test_case "information that bill is not a doctor: no" `Quick
      (fun () ->
        Alcotest.(check bool)
          "negative" false
          (Para.entails_not_instance t "bill" (Atom "Doctor")));
    Alcotest.test_case "bill : Doctor has value t" `Quick (fun () ->
        Alcotest.check tv "t" Truth.True
          (Para.instance_truth t "bill" (Atom "Doctor")));
    Alcotest.test_case "john : Doctor has value TOP (the contradiction)"
      `Quick (fun () ->
        Alcotest.check tv "TOP" Truth.Both
          (Para.instance_truth t "john" (Atom "Doctor")));
    Alcotest.test_case "irrelevant Patient(john) is NOT entailed" `Quick
      (fun () ->
        Alcotest.check tv "BOT" Truth.Neither
          (Para.instance_truth t "john" (Atom "Patient")));
    Alcotest.test_case "paper's witness model is a 4-model" `Quick (fun () ->
        (* Doctor = <{john,bill},{john}>, Patient = <{mary},∅>,
           hasPatient = <{(bill,mary)},∅> with john=0 mary=1 bill=2 *)
        let i =
          Interp4.make
            ~domain:(Interp.ESet.of_list [ 0; 1; 2 ])
            ~concepts:
              [ ("Doctor", [ 0; 2 ], [ 0 ]); ("Patient", [ 1 ], []) ]
            ~roles:[ ("hasPatient", [ (2, 1) ], []) ]
            ~individuals:[ ("john", 0); ("mary", 1); ("bill", 2) ]
            ()
        in
        Alcotest.(check bool)
          "is model" true
          (Interp4.is_model i Paper_examples.example1);
        Alcotest.(check bool)
          "bill not told-non-doctor here" false
          (Interp.ESet.mem 2 (Interp4.eval i (Atom "Doctor")).Interp4.cneg))
  ]

(* ------------------------------------------------------------------ *)
(* Example 2: access-control conflict *)

let example2_tests =
  let t = Para.create Paper_examples.example2 in
  let rprt = Atom "ReadPatientRecordTeam" in
  [ Alcotest.test_case "KB is four-valued satisfiable" `Quick (fun () ->
        Alcotest.(check bool) "sat" true (Para.satisfiable t));
    Alcotest.test_case "allowed to read: yes" `Quick (fun () ->
        Alcotest.(check bool) "pos" true (Para.entails_instance t "john" rprt));
    Alcotest.test_case "not allowed to read: also yes (contradiction)" `Quick
      (fun () ->
        Alcotest.(check bool)
          "neg" true
          (Para.entails_not_instance t "john" rprt));
    Alcotest.test_case "john : ReadPatientRecordTeam = TOP" `Quick (fun () ->
        Alcotest.check tv "TOP" Truth.Both (Para.instance_truth t "john" rprt));
    Alcotest.test_case "john : Patient = BOT (not contrary)" `Quick (fun () ->
        Alcotest.check tv "BOT" Truth.Neither
          (Para.instance_truth t "john" (Atom "Patient")));
    Alcotest.test_case "contradiction is localized by [contradictions]" `Quick
      (fun () ->
        let cs = Para.contradictions t in
        Alcotest.(check bool)
          "rprt flagged" true
          (List.mem ("john", "ReadPatientRecordTeam") cs);
        Alcotest.(check bool)
          "surgical not flagged" false
          (List.mem ("john", "SurgicalTeam") cs))
  ]

(* ------------------------------------------------------------------ *)
(* Examples 3 and 5: Tweety; transformation and reasoning *)

let example3_tests =
  let t = Para.create Paper_examples.example3 in
  [ Alcotest.test_case "classical rendition is unsatisfiable" `Quick (fun () ->
        Alcotest.(check bool)
          "unsat" false
          (Tableau.kb_satisfiable Paper_examples.example3_classical));
    Alcotest.test_case "four-valued KB is satisfiable" `Quick (fun () ->
        Alcotest.(check bool) "sat" true (Para.satisfiable t));
    Alcotest.test_case "Fly-(tweety) holds: tweety cannot fly" `Quick
      (fun () ->
        Alcotest.(check bool)
          "told false" true
          (Para.entails_not_instance t "tweety" (Atom "Fly")));
    Alcotest.test_case "Fly+(tweety) does not hold: KB is not trivial" `Quick
      (fun () ->
        Alcotest.(check bool)
          "told true" false
          (Para.entails_instance t "tweety" (Atom "Fly")));
    Alcotest.test_case "tweety : Fly = f" `Quick (fun () ->
        Alcotest.check tv "f" Truth.False
          (Para.instance_truth t "tweety" (Atom "Fly")));
    Alcotest.test_case "tweety : Penguin = t" `Quick (fun () ->
        Alcotest.check tv "t" Truth.True
          (Para.instance_truth t "tweety" (Atom "Penguin")));
    Alcotest.test_case "paper's witness model I satisfies K4" `Quick
      (fun () ->
        (* Bird = <{tweety},{tweety}>, Fly = <∅,{tweety}>,
           Penguin = <{tweety},∅>, Wing = <{w},∅>,
           hasWing = <{(tweety,w)},∅>; tweety=0, w=1.
           (The paper prints hasWing^I = <{tweety},{w}>, an obvious typo for
           the positive pair set {(tweety,w)}.) *)
        let i =
          Interp4.make
            ~domain:(Interp.ESet.of_list [ 0; 1 ])
            ~concepts:
              [ ("Bird", [ 0 ], [ 0 ]);
                ("Fly", [], [ 0 ]);
                ("Penguin", [ 0 ], []);
                ("Wing", [ 1 ], []) ]
            ~roles:[ ("hasWing", [ (0, 1) ], []) ]
            ~individuals:[ ("tweety", 0); ("w", 1) ]
            ()
        in
        Alcotest.(check bool)
          "is model" true
          (Interp4.is_model i Paper_examples.example3);
        Alcotest.check tv "Bird(tweety)=TOP" Truth.Both
          (Interp4.truth_value i (Atom "Bird") "tweety");
        Alcotest.check tv "Fly(tweety)=f" Truth.False
          (Interp4.truth_value i (Atom "Fly") "tweety");
        Alcotest.check tv "Penguin(tweety)=t" Truth.True
          (Interp4.truth_value i (Atom "Penguin") "tweety"));
    Alcotest.test_case "Example 5: the induced classical KB shape" `Quick
      (fun () ->
        let kbar = Session.classical_kb t in
        (* Penguin+ << Bird+, Penguin+ << some hasWing+.Wing+,
           Penguin+ << Fly-, and the material axiom
           ~(Bird- | only hasWing+.Wing-) << Fly+ *)
        let has ax =
          List.exists (fun ax' -> Axiom.compare_tbox_axiom ax ax' = 0) kbar.Axiom.tbox
        in
        Alcotest.(check bool)
          "Penguin+ << Bird+" true
          (has (Axiom.Concept_sub (Atom "Penguin+", Atom "Bird+")));
        Alcotest.(check bool)
          "Penguin+ << Fly-" true
          (has (Axiom.Concept_sub (Atom "Penguin+", Atom "Fly-")));
        Alcotest.(check bool)
          "Penguin+ << some hasWing+.Wing+" true
          (has
             (Axiom.Concept_sub
                ( Atom "Penguin+",
                  Exists (Role.name "hasWing+", Atom "Wing+") )));
        (* one classical axiom per four-valued axiom here: the material
           inclusion and the three internal ones *)
        Alcotest.(check int) "four classical axioms" 4
          (List.length kbar.Axiom.tbox))
  ]

(* ------------------------------------------------------------------ *)
(* Example 4 and Table 4 *)

let example4_tests =
  let t = Para.create Paper_examples.example4 in
  let has_child = Role.name "hasChild" in
  [ Alcotest.test_case "KB is four-valued satisfiable" `Quick (fun () ->
        Alcotest.(check bool) "sat" true (Para.satisfiable t));
    Alcotest.test_case "classical reading is inconsistent" `Quick (fun () ->
        let classical =
          Axiom.make
            ~tbox:
              [ Axiom.Concept_sub (At_least (1, has_child), Atom "Parent");
                Axiom.Concept_sub (Atom "Parent", Atom "Married") ]
            ~abox:(Paper_examples.example4 : Kb4.t).abox
        in
        Alcotest.(check bool) "unsat" false (Tableau.kb_satisfiable classical));
    Alcotest.test_case "smith : Parent = t (told, not denied)" `Quick
      (fun () ->
        Alcotest.check tv "t" Truth.True
          (Para.instance_truth t "smith" (Atom "Parent")));
    Alcotest.test_case "smith : Married = f (exception wins)" `Quick
      (fun () ->
        Alcotest.check tv "f" Truth.False
          (Para.instance_truth t "smith" (Atom "Married")));
    Alcotest.test_case "hasChild(smith,kate) told-true, not told-false"
      `Quick (fun () ->
        Alcotest.check tv "t" Truth.True
          (Para.role_truth t "smith" has_child "kate"));
    Alcotest.test_case
      "Table 4: realizable value rows over {smith,kate} match the paper"
      `Slow (fun () ->
        let statements i =
          [ Interp4.role_truth_value i has_child "smith" "kate";
            Interp4.truth_value i (At_least (1, has_child)) "smith";
            Interp4.truth_value i (Atom "Parent") "smith";
            Interp4.truth_value i (Atom "Married") "smith" ]
        in
        let module Rows = Stdlib.Set.Make (struct
          type t = Truth.t list

          let compare = List.compare Truth.compare
        end) in
        let realized =
          Seq.fold_left
            (fun acc m -> Rows.add (statements m) acc)
            Rows.empty
            (Enum.models4 Paper_examples.example4)
        in
        let expected =
          Rows.of_list (List.map fst Paper_examples.table4_rows)
        in
        Alcotest.(check int)
          "nine distinct rows" 9 (Rows.cardinal realized);
        Alcotest.(check bool)
          "rows match Table 4 exactly" true
          (Rows.equal realized expected))
  ]

let () =
  Alcotest.run "paper-examples"
    [ ("example1", example1_tests);
      ("example2", example2_tests);
      ("example3+5", example3_tests);
      ("example4+table4", example4_tests) ]
