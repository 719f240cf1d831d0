(* Tests for the transformation of Definitions 5-7 and the query compilation
   of Corollary 7, including fixed-case checks of Lemma 5 (the qcheck
   versions live in test_properties.ml). *)

let concept = Alcotest.testable Concept.pp Concept.equal

open Concept

let a = Atom "A"
let b = Atom "B"
let r = Role.name "r"

let check_pos name input expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.check concept name expected (Transform.concept_pos input))

let ap = Atom (Mangle.pos_atom "A")
let an = Atom (Mangle.neg_atom "A")
let bp = Atom (Mangle.pos_atom "B")
let bn = Atom (Mangle.neg_atom "B")
let rp = Role.Name (Mangle.plus_role "r")
let re = Role.Name (Mangle.eq_role "r")

(* Definition 5, clause by clause. *)
let concept_transform_tests =
  [ check_pos "(1) atom" a ap;
    check_pos "(2) negated atom" (Not a) an;
    check_pos "(3) top" Top Top;
    check_pos "(4) bottom" Bottom Bottom;
    check_pos "(5) conjunction" (And (a, b)) (And (ap, bp));
    check_pos "(6) disjunction" (Or (a, b)) (Or (ap, bp));
    check_pos "(7) exists" (Exists (r, a)) (Exists (rp, ap));
    check_pos "(8) forall" (Forall (r, a)) (Forall (rp, ap));
    check_pos "(9) at-least" (At_least (2, r)) (At_least (2, rp));
    check_pos "(10) at-most" (At_most (2, r)) (At_most (2, re));
    check_pos "(11) double negation" (Not (Not a)) ap;
    check_pos "(12) negated conjunction" (Not (And (a, b))) (Or (an, bn));
    check_pos "(13) negated disjunction" (Not (Or (a, b))) (And (an, bn));
    check_pos "(14) negated exists" (Not (Exists (r, a))) (Forall (rp, an));
    check_pos "(15) negated forall" (Not (Forall (r, a))) (Exists (rp, an));
    check_pos "(16) negated at-least" (Not (At_least (2, r))) (At_most (1, re));
    check_pos "(16) negated at-least 0" (Not (At_least (0, r))) Bottom;
    check_pos "(17) negated at-most" (Not (At_most (2, r))) (At_least (3, rp));
    check_pos "(18) nominal" (One_of [ "o" ]) (One_of [ "o" ]);
    check_pos "(19) inverse roles commute"
      (Exists (Role.inv r, a))
      (Exists (Role.Inv (Mangle.plus_role "r"), ap));
    check_pos "(19) inverse under at-most"
      (At_most (1, Role.inv r))
      (At_most (1, Role.Inv (Mangle.eq_role "r")));
    check_pos "nested: ~(A & some r.B)"
      (Not (And (a, Exists (r, b))))
      (Or (an, Forall (rp, bn)));
    check_pos "datatype exists keeps the datatype"
      (Data_exists ("u", Datatype.Int_type))
      (Data_exists (Mangle.plus_role "u", Datatype.Int_type));
    check_pos "negated datatype exists complements"
      (Not (Data_exists ("u", Datatype.Int_type)))
      (Data_forall (Mangle.plus_role "u", Datatype.Complement Datatype.Int_type));
    check_pos "negated data at-most"
      (Not (Data_at_most (1, "u")))
      (Data_at_least (2, Mangle.plus_role "u"))
  ]

(* Definition 6. *)
let axiom_transform_tests =
  [ Alcotest.test_case "material concept inclusion" `Quick (fun () ->
        match Transform.tbox_axiom (Kb4.Concept_inclusion (Kb4.Material, a, b)) with
        | [ Axiom.Concept_sub (lhs, rhs) ] ->
            Alcotest.check concept "lhs" (Not an) lhs;
            Alcotest.check concept "rhs" bp rhs
        | _ -> Alcotest.fail "shape");
    Alcotest.test_case "internal concept inclusion" `Quick (fun () ->
        match Transform.tbox_axiom (Kb4.Concept_inclusion (Kb4.Internal, a, b)) with
        | [ Axiom.Concept_sub (lhs, rhs) ] ->
            Alcotest.check concept "lhs" ap lhs;
            Alcotest.check concept "rhs" bp rhs
        | _ -> Alcotest.fail "shape");
    Alcotest.test_case "strong concept inclusion yields two axioms" `Quick
      (fun () ->
        match Transform.tbox_axiom (Kb4.Concept_inclusion (Kb4.Strong, a, b)) with
        | [ Axiom.Concept_sub (l1, r1); Axiom.Concept_sub (l2, r2) ] ->
            Alcotest.check concept "pos lhs" ap l1;
            Alcotest.check concept "pos rhs" bp r1;
            Alcotest.check concept "neg lhs" bn l2;
            Alcotest.check concept "neg rhs" an r2
        | _ -> Alcotest.fail "shape");
    Alcotest.test_case "role inclusions" `Quick (fun () ->
        let s = Role.name "s" in
        let sp = Role.Name (Mangle.plus_role "s") in
        let se = Role.Name (Mangle.eq_role "s") in
        (match Transform.tbox_axiom (Kb4.Role_inclusion (Kb4.Material, r, s)) with
        | [ Axiom.Role_sub (x, y) ] ->
            Alcotest.(check bool) "R= << S+" true
              (Role.equal x re && Role.equal y sp)
        | _ -> Alcotest.fail "material");
        (match Transform.tbox_axiom (Kb4.Role_inclusion (Kb4.Internal, r, s)) with
        | [ Axiom.Role_sub (x, y) ] ->
            Alcotest.(check bool) "R+ << S+" true
              (Role.equal x rp && Role.equal y sp)
        | _ -> Alcotest.fail "internal");
        match Transform.tbox_axiom (Kb4.Role_inclusion (Kb4.Strong, r, s)) with
        | [ Axiom.Role_sub (x1, y1); Axiom.Role_sub (x2, y2) ] ->
            Alcotest.(check bool) "R+ << S+" true
              (Role.equal x1 rp && Role.equal y1 sp);
            Alcotest.(check bool) "R= << S=" true
              (Role.equal x2 re && Role.equal y2 se)
        | _ -> Alcotest.fail "strong");
    Alcotest.test_case "transitivity maps to the positive role" `Quick
      (fun () ->
        match Transform.tbox_axiom (Kb4.Transitive "r") with
        | [ Axiom.Transitive name ] ->
            Alcotest.(check string) "r+" (Mangle.plus_role "r") name
        | _ -> Alcotest.fail "shape");
    Alcotest.test_case "abox transformation" `Quick (fun () ->
        (match Transform.abox_axiom (Axiom.Instance_of ("x", Not a)) with
        | Axiom.Instance_of ("x", c) -> Alcotest.check concept "A-" an c
        | _ -> Alcotest.fail "instance");
        (match Transform.abox_axiom (Axiom.Role_assertion ("x", r, "y")) with
        | Axiom.Role_assertion ("x", rr, "y") ->
            Alcotest.(check bool) "r+" true (Role.equal rr rp)
        | _ -> Alcotest.fail "role");
        match Transform.abox_axiom (Axiom.Same ("x", "y")) with
        | Axiom.Same _ -> ()
        | _ -> Alcotest.fail "same")
  ]

(* Lemma 5 on the fixed interpretation of test_semantics: for every concept
   in a small pool, proj+(C^I) = (C̄)^Ī and proj-(C^I) = ((¬C)bar)^Ī. *)
let lemma5_fixed_tests =
  let i4 =
    Interp4.make
      ~domain:(Interp.ESet.of_list [ 0; 1; 2 ])
      ~concepts:[ ("A", [ 0; 1 ], [ 1; 2 ]); ("B", [ 1 ], [ 0 ]) ]
      ~roles:[ ("r", [ (0, 1); (1, 2) ], [ (0, 2); (2, 2) ]) ]
      ~individuals:[ ("x", 0); ("y", 1); ("z", 2) ]
      ()
  in
  let ibar = Induced.classical_of_four i4 in
  let pool =
    [ a;
      Not a;
      And (a, b);
      Or (Not a, b);
      Exists (r, a);
      Forall (r, Not b);
      Not (Exists (r, And (a, b)));
      At_least (1, r);
      At_most (1, r);
      Not (At_least (2, r));
      Not (At_most (0, r));
      Exists (Role.inv r, a);
      Forall (Role.inv r, Or (a, Not b));
      One_of [ "x"; "z" ];
      And (One_of [ "x" ], a);
      Not (And (Not a, Not b)) ]
  in
  List.mapi
    (fun idx c ->
      Alcotest.test_case
        (Printf.sprintf "decomposition %d: %s" idx (Concept.to_string c))
        `Quick
        (fun () ->
          let e = Interp4.eval i4 c in
          let pos = Interp.eval ibar (Transform.concept_pos c) in
          let neg = Interp.eval ibar (Transform.concept_neg c) in
          Alcotest.(check bool)
            "pos projection" true
            (Interp.ESet.equal e.Interp4.cpos pos);
          Alcotest.(check bool)
            "neg projection" true
            (Interp.ESet.equal e.Interp4.cneg neg)))
    pool

(* Theorem 6 on the paper examples: I is a 4-model of K iff Ī is a model of
   K̄ — checked in the forward direction over enumerated models. *)
let theorem6_tests =
  [ Alcotest.test_case "forward: 4-models map to classical models (ex2)"
      `Quick (fun () ->
        let kb = Paper_examples.example2 in
        let kbar = Transform.kb kb in
        let checked = ref 0 in
        Seq.iter
          (fun m ->
            incr checked;
            Alcotest.(check bool)
              "induced classical model" true
              (Interp.is_model (Induced.classical_of_four m) kbar))
          (Seq.take 500 (Enum.models4 kb));
        Alcotest.(check bool) "some models checked" true (!checked > 0));
    Alcotest.test_case "backward: classical models map to 4-models (ex2)"
      `Quick (fun () ->
        let kb = Paper_examples.example2 in
        let kbar = Transform.kb kb in
        let signature = Kb4.signature kb in
        let checked = ref 0 in
        Seq.iter
          (fun m ->
            incr checked;
            Alcotest.(check bool)
              "induced 4-model" true
              (Interp4.is_model (Induced.four_of_classical ~signature m) kb))
          (Seq.take 500 (Enum.models2 kbar));
        Alcotest.(check bool) "some models checked" true (!checked > 0));
    Alcotest.test_case "satisfiability transfers (paper examples)" `Quick
      (fun () ->
        List.iter
          (fun kb ->
            Alcotest.(check bool)
              "4-sat iff classical sat of induced KB" (Enum.exists_model4 kb)
              (Tableau.kb_satisfiable (Transform.kb kb)))
          (* example1's 3-individual domain is too large to enumerate *)
          [ Paper_examples.example2; Paper_examples.example4 ])
  ]

(* Corollary 7: inclusion queries against enumeration. *)
let corollary7_tests =
  [ Alcotest.test_case "internal inclusion entailed by strong axiom" `Quick
      (fun () ->
        let kb =
          Kb4.make ~tbox:[ Kb4.Concept_inclusion (Kb4.Strong, a, b) ] ~abox:[]
        in
        let t = Para.create kb in
        Alcotest.(check bool)
          "A < B" true
          (Session.entails_inclusion t Kb4.Internal a b);
        Alcotest.(check bool)
          "A -> B" true
          (Session.entails_inclusion t Kb4.Strong a b);
        Alcotest.(check bool)
          "B < A not entailed" false
          (Session.entails_inclusion t Kb4.Internal b a));
    Alcotest.test_case "internal axiom does not give strong inclusion" `Quick
      (fun () ->
        let kb =
          Kb4.make ~tbox:[ Kb4.Concept_inclusion (Kb4.Internal, a, b) ] ~abox:[]
        in
        let t = Para.create kb in
        Alcotest.(check bool)
          "A < B" true
          (Session.entails_inclusion t Kb4.Internal a b);
        Alcotest.(check bool)
          "A -> B not entailed" false
          (Session.entails_inclusion t Kb4.Strong a b));
    Alcotest.test_case "reflexivity and transitivity of internal inclusion"
      `Quick (fun () ->
        let kb =
          Kb4.make
            ~tbox:
              [ Kb4.Concept_inclusion (Kb4.Internal, a, b);
                Kb4.Concept_inclusion (Kb4.Internal, b, Atom "C") ]
            ~abox:[]
        in
        let t = Para.create kb in
        Alcotest.(check bool)
          "A < A" true
          (Session.entails_inclusion t Kb4.Internal a a);
        Alcotest.(check bool)
          "A < C" true
          (Session.entails_inclusion t Kb4.Internal a (Atom "C")));
    Alcotest.test_case "material inclusion from material axiom" `Quick
      (fun () ->
        let kb =
          Kb4.make ~tbox:[ Kb4.Concept_inclusion (Kb4.Material, a, b) ] ~abox:[]
        in
        let t = Para.create kb in
        Alcotest.(check bool)
          "A |-> B" true
          (Session.entails_inclusion t Kb4.Material a b);
        Alcotest.(check bool)
          "A < B NOT entailed by material axiom" false
          (Session.entails_inclusion t Kb4.Internal a b))
  ]

let () =
  Alcotest.run "transform"
    [ ("definition5", concept_transform_tests);
      ("definition6", axiom_transform_tests);
      ("lemma5-fixed", lemma5_fixed_tests);
      ("theorem6", theorem6_tests);
      ("corollary7", corollary7_tests) ]
