(* Tests for the classical SHOIN(D) tableau reasoner. *)

open Concept

let atom = Concept.Atom "A"
let b = Concept.Atom "B"
let c = Concept.Atom "C"
let r = Role.name "r"
let s = Role.name "s"

let sat ?(tbox = []) ?(abox = []) () =
  Tableau.kb_satisfiable { Axiom.tbox; abox }

let check_sat name expected kb_sat =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check bool) name expected kb_sat)

let csat ?(tbox = []) concept =
  sat ~tbox ~abox:[ Axiom.Instance_of ("x", concept) ] ()

(* ------------------------------------------------------------------ *)
(* Basic propositional-style satisfiability *)

let basic_tests =
  [ check_sat "empty KB is satisfiable" true (sat ());
    check_sat "A is satisfiable" true (csat atom);
    check_sat "A & ~A is unsatisfiable" false (csat (And (atom, Not atom)));
    check_sat "A | ~A is satisfiable" true (csat (Or (atom, Not atom)));
    check_sat "Bottom is unsatisfiable" false (csat Bottom);
    check_sat "Top is satisfiable" true (csat Top);
    check_sat "deep nesting: (A|B) & (~A|B) & (A|~B) & (~A|~B) unsat" false
      (csat
         (conj
            [ Or (atom, b);
              Or (Not atom, b);
              Or (atom, Not b);
              Or (Not atom, Not b) ]));
    check_sat "three-way disjunction keeps one branch open" true
      (csat (conj [ disj [ atom; b; c ]; Not atom; Not b ]));
    check_sat "contradiction via disjunction both branches closed" false
      (csat (conj [ disj [ atom; b ]; Not atom; Not b ]))
  ]

(* ------------------------------------------------------------------ *)
(* Quantifiers *)

let quantifier_tests =
  [ check_sat "some r.A satisfiable" true (csat (Exists (r, atom)));
    check_sat "some r.A & only r.~A unsat" false
      (csat (And (Exists (r, atom), Forall (r, Not atom))));
    check_sat "some r.A & only r.B: successor gets both" true
      (csat (And (Exists (r, atom), Forall (r, b))));
    check_sat "some r.(A & ~A) unsat" false
      (csat (Exists (r, And (atom, Not atom))));
    check_sat "only r.Bottom satisfiable (no successor forced)" true
      (csat (Forall (r, Bottom)));
    check_sat "some r.Top & only r.Bottom unsat" false
      (csat (And (Exists (r, Top), Forall (r, Bottom))));
    check_sat "nested: some r.(some s.A) & only r.(only s.~A) unsat" false
      (csat
         (And (Exists (r, Exists (s, atom)), Forall (r, Forall (s, Not atom)))))
  ]

(* ------------------------------------------------------------------ *)
(* TBox reasoning: subsumption via unsatisfiability, GCIs, cycles *)

let tbox_tests =
  [ check_sat "A << B makes A & ~B unsat" false
      (csat
         ~tbox:[ Axiom.Concept_sub (atom, b) ]
         (And (atom, Not b)));
    check_sat "chain A<<B<<C: A & ~C unsat" false
      (csat
         ~tbox:[ Axiom.Concept_sub (atom, b); Axiom.Concept_sub (b, c) ]
         (And (atom, Not c)));
    check_sat "cyclic TBox A << some r.A is satisfiable (blocking)" true
      (csat ~tbox:[ Axiom.Concept_sub (atom, Exists (r, atom)) ] atom);
    check_sat "cyclic GCI Top << some r.A terminates (blocking)" true
      (csat ~tbox:[ Axiom.Concept_sub (Top, Exists (r, atom)) ] atom);
    check_sat "complex LHS GCI: (some r.A) << B, with r-succ in A, ~B unsat"
      false
      (sat
         ~tbox:[ Axiom.Concept_sub (Exists (r, atom), b) ]
         ~abox:
           [ Axiom.Instance_of ("x", Not b);
             Axiom.Role_assertion ("x", r, "y");
             Axiom.Instance_of ("y", atom) ]
         ());
    check_sat "unsatisfiable TBox: Top << A, Top << ~A" false
      (sat
         ~tbox:[ Axiom.Concept_sub (Top, atom); Axiom.Concept_sub (Top, Not atom) ]
         ~abox:[ Axiom.Instance_of ("x", Top) ]
         ())
  ]

(* ------------------------------------------------------------------ *)
(* Role hierarchies and transitivity *)

let role_tests =
  [ check_sat "r << s propagates only s.C to r-successor" false
      (sat
         ~tbox:[ Axiom.Role_sub (r, s) ]
         ~abox:
           [ Axiom.Instance_of ("x", Forall (s, Not atom));
             Axiom.Role_assertion ("x", r, "y");
             Axiom.Instance_of ("y", atom) ]
         ());
    check_sat "transitive role propagates forall two steps" false
      (sat
         ~tbox:[ Axiom.Transitive "r" ]
         ~abox:
           [ Axiom.Instance_of ("x", Forall (r, Not atom));
             Axiom.Role_assertion ("x", r, "y");
             Axiom.Role_assertion ("y", r, "z");
             Axiom.Instance_of ("z", atom) ]
         ());
    check_sat "without transitivity two steps are fine" true
      (sat
         ~abox:
           [ Axiom.Instance_of ("x", Forall (r, Not atom));
             Axiom.Role_assertion ("x", r, "y");
             Axiom.Role_assertion ("y", r, "z");
             Axiom.Instance_of ("z", atom) ]
         ());
    check_sat "transitive subrole: Trans(r), r << s, only s.~A blocks chain"
      false
      (sat
         ~tbox:[ Axiom.Transitive "r"; Axiom.Role_sub (r, s) ]
         ~abox:
           [ Axiom.Instance_of ("x", Forall (s, Not atom));
             Axiom.Role_assertion ("x", r, "y");
             Axiom.Role_assertion ("y", r, "z");
             Axiom.Instance_of ("z", atom) ]
         ())
  ]

(* ------------------------------------------------------------------ *)
(* Inverse roles *)

let inverse_tests =
  [ check_sat "inverse: r(x,y) and y: only r^-.~A with x:A unsat" false
      (sat
         ~abox:
           [ Axiom.Instance_of ("x", atom);
             Axiom.Role_assertion ("x", r, "y");
             Axiom.Instance_of ("y", Forall (Role.inv r, Not atom)) ]
         ());
    check_sat "inverse: some r.(only r^-.~A) & A unsat" false
      (csat (conj [ atom; Exists (r, Forall (Role.inv r, Not atom)) ]));
    check_sat "inverse: some r.(only r^-.A) & A satisfiable" true
      (csat (conj [ atom; Exists (r, Forall (Role.inv r, atom)) ]));
    check_sat "inverse role assertion: r^-(x,y) same as r(y,x)" false
      (sat
         ~abox:
           [ Axiom.Role_assertion ("x", Role.inv r, "y");
             Axiom.Instance_of ("y", Forall (r, Not atom));
             Axiom.Instance_of ("x", atom) ]
         ())
  ]

(* ------------------------------------------------------------------ *)
(* Number restrictions *)

let number_tests =
  [ check_sat ">= 2 r satisfiable" true (csat (At_least (2, r)));
    check_sat ">= 2 r & <= 1 r unsat" false
      (csat (And (At_least (2, r), At_most (1, r))));
    check_sat ">= 1 r & <= 1 r satisfiable" true
      (csat (And (At_least (1, r), At_most (1, r))));
    check_sat "<= 0 r & some r.Top unsat" false
      (csat (And (At_most (0, r), Exists (r, Top))));
    check_sat "two named successors merge under <= 1" true
      (sat
         ~abox:
           [ Axiom.Instance_of ("x", At_most (1, r));
             Axiom.Role_assertion ("x", r, "y");
             Axiom.Role_assertion ("x", r, "z") ]
         ());
    check_sat "two distinct named successors clash under <= 1" false
      (sat
         ~abox:
           [ Axiom.Instance_of ("x", At_most (1, r));
             Axiom.Role_assertion ("x", r, "y");
             Axiom.Role_assertion ("x", r, "z");
             Axiom.Different ("y", "z") ]
         ());
    check_sat "merge propagates labels: <=1 r with A-succ and ~A-succ unsat"
      false
      (sat
         ~abox:
           [ Axiom.Instance_of ("x", At_most (1, r));
             Axiom.Role_assertion ("x", r, "y");
             Axiom.Role_assertion ("x", r, "z");
             Axiom.Instance_of ("y", atom);
             Axiom.Instance_of ("z", Not atom) ]
         ());
    check_sat "at-least over subrole counts for superrole" false
      (csat
         ~tbox:[ Axiom.Role_sub (r, s) ]
         (And (At_least (2, r), At_most (1, s))));
    check_sat ">= 3 r & <= 2 r unsat (multi-merge)" false
      (csat (And (At_least (3, r), At_most (2, r))))
  ]

(* ------------------------------------------------------------------ *)
(* Nominals *)

let nominal_tests =
  [ check_sat "x : {o} merges x with o" false
      (sat
         ~abox:
           [ Axiom.Instance_of ("x", One_of [ "o" ]);
             Axiom.Instance_of ("x", atom);
             Axiom.Instance_of ("o", Not atom) ]
         ());
    check_sat "negated nominal keeps nodes apart" true
      (sat
         ~abox:
           [ Axiom.Instance_of ("x", Not (One_of [ "o" ]));
             Axiom.Instance_of ("x", atom);
             Axiom.Instance_of ("o", Not atom) ]
         ());
    check_sat "x : {o} and x : ~{o} clash" false
      (sat
         ~abox:
           [ Axiom.Instance_of ("x", One_of [ "o" ]);
             Axiom.Instance_of ("x", Not (One_of [ "o" ])) ]
         ());
    check_sat "disjunctive nominal {o1,o2} picks a consistent branch" true
      (sat
         ~abox:
           [ Axiom.Instance_of ("x", One_of [ "o1"; "o2" ]);
             Axiom.Instance_of ("x", atom);
             Axiom.Instance_of ("o1", Not atom) ]
         ());
    check_sat "disjunctive nominal with both branches closed" false
      (sat
         ~abox:
           [ Axiom.Instance_of ("x", One_of [ "o1"; "o2" ]);
             Axiom.Instance_of ("x", atom);
             Axiom.Instance_of ("o1", Not atom);
             Axiom.Instance_of ("o2", Not atom) ]
         ())
  ]

(* ------------------------------------------------------------------ *)
(* ABox equality / inequality *)

let abox_tests =
  [ check_sat "a = b merges labels" false
      (sat
         ~abox:
           [ Axiom.Same ("a", "b");
             Axiom.Instance_of ("a", atom);
             Axiom.Instance_of ("b", Not atom) ]
         ());
    check_sat "a != a is unsatisfiable" false
      (sat ~abox:[ Axiom.Different ("a", "a") ] ());
    check_sat "a != a stays unsatisfiable merged into b" false
      (sat ~abox:[ Axiom.Different ("a", "a"); Axiom.Same ("b", "a") ] ());
    check_sat "a = b with a != b unsatisfiable" false
      (sat ~abox:[ Axiom.Same ("a", "b"); Axiom.Different ("a", "b") ] ());
    check_sat "equality closes role paths" false
      (sat
         ~abox:
           [ Axiom.Same ("a", "b");
             Axiom.Role_assertion ("x", r, "a");
             Axiom.Instance_of ("x", Forall (r, atom));
             Axiom.Instance_of ("b", Not atom) ]
         ())
  ]

(* ------------------------------------------------------------------ *)
(* Datatypes *)

let dt = Datatype.Int_range (Some 0, Some 10)
let dt_hi = Datatype.Int_range (Some 5, Some 20)

let datatype_tests =
  [ check_sat "data exists in range satisfiable" true
      (csat (Data_exists ("u", dt)));
    check_sat "exists & forall with empty intersection unsat" false
      (csat
         (And
            ( Data_exists ("u", Datatype.Int_range (Some 0, Some 4)),
              Data_forall ("u", dt_hi) )));
    check_sat "exists & forall with overlap satisfiable" true
      (csat (And (Data_exists ("u", dt), Data_forall ("u", dt_hi))));
    check_sat "asserted value violating forall unsat" false
      (sat
         ~abox:
           [ Axiom.Data_assertion ("x", "u", Datatype.Int 42);
             Axiom.Instance_of ("x", Data_forall ("u", dt)) ]
         ());
    check_sat "asserted value inside forall satisfiable" true
      (sat
         ~abox:
           [ Axiom.Data_assertion ("x", "u", Datatype.Int 3);
             Axiom.Instance_of ("x", Data_forall ("u", dt)) ]
         ());
    check_sat "at-least 5 over a 3-value datatype unsat" false
      (csat
         (And
            ( Data_at_least (5, "u"),
              Data_forall ("u", Datatype.Int_range (Some 1, Some 3)) )));
    check_sat "at-least 3 over a 3-value datatype satisfiable" true
      (csat
         (And
            ( Data_at_least (3, "u"),
              Data_forall ("u", Datatype.Int_range (Some 1, Some 3)) )));
    check_sat "at-most 0 with asserted value unsat" false
      (sat
         ~abox:
           [ Axiom.Data_assertion ("x", "u", Datatype.Int 1);
             Axiom.Instance_of ("x", Data_at_most (0, "u")) ]
         ());
    check_sat "boolean datatype at-least 3 unsat" false
      (csat
         (And (Data_at_least (3, "u"), Data_forall ("u", Datatype.Bool_type))));
    check_sat "data role hierarchy: value on u counts for v" false
      (sat
         ~tbox:[ Axiom.Data_role_sub ("u", "v") ]
         ~abox:
           [ Axiom.Data_assertion ("x", "u", Datatype.Int 42);
             Axiom.Instance_of ("x", Data_forall ("v", dt)) ]
         ())
  ]

(* ------------------------------------------------------------------ *)
(* Reasoner services *)

let services_tests =
  let penguin_kb =
    Axiom.make
      ~tbox:
        [ Axiom.Concept_sub (Atom "Penguin", Atom "Bird");
          Axiom.Concept_sub (Atom "Bird", Atom "Animal");
          Axiom.Concept_sub (Atom "Penguin", Not (Atom "Flyer")) ]
      ~abox:[ Axiom.Instance_of ("tweety", Atom "Penguin") ]
  in
  let t = Reasoner.create penguin_kb in
  [ Alcotest.test_case "consistent penguin KB" `Quick (fun () ->
        Alcotest.(check bool) "consistent" true (Reasoner.is_consistent t));
    Alcotest.test_case "subsumption Penguin << Animal" `Quick (fun () ->
        Alcotest.(check bool)
          "subsumes" true
          (Reasoner.subsumes t (Atom "Penguin") (Atom "Animal")));
    Alcotest.test_case "no reverse subsumption" `Quick (fun () ->
        Alcotest.(check bool)
          "subsumes" false
          (Reasoner.subsumes t (Atom "Animal") (Atom "Penguin")));
    Alcotest.test_case "instance tweety : Animal" `Quick (fun () ->
        Alcotest.(check bool)
          "instance" true
          (Reasoner.instance_of t "tweety" (Atom "Animal")));
    Alcotest.test_case "instance tweety : ~Flyer" `Quick (fun () ->
        Alcotest.(check bool)
          "instance" true
          (Reasoner.instance_of t "tweety" (Not (Atom "Flyer"))));
    Alcotest.test_case "non-instance tweety : Flyer" `Quick (fun () ->
        Alcotest.(check bool)
          "instance" false
          (Reasoner.instance_of t "tweety" (Atom "Flyer")));
    Alcotest.test_case "classify finds the chain" `Quick (fun () ->
        let hierarchy = Reasoner.classify t in
        let supers a = List.assoc a hierarchy in
        Alcotest.(check (slist string String.compare))
          "penguin supers"
          [ "Bird"; "Animal" ]
          (supers "Penguin"));
    Alcotest.test_case "role entailment through hierarchy" `Quick (fun () ->
        let kb =
          Axiom.make
            ~tbox:[ Axiom.Role_sub (r, s) ]
            ~abox:[ Axiom.Role_assertion ("a", r, "b") ]
        in
        let t = Reasoner.create kb in
        Alcotest.(check bool) "s(a,b)" true (Reasoner.role_entailed t "a" s "b");
        Alcotest.(check bool)
          "r(b,a) not entailed" false
          (Reasoner.role_entailed t "b" r "a"));
    Alcotest.test_case "same/different entailment" `Quick (fun () ->
        let kb =
          Axiom.make ~tbox:[]
            ~abox:
              [ Axiom.Same ("a", "b"); Axiom.Different ("a", "c") ]
        in
        let t = Reasoner.create kb in
        Alcotest.(check bool) "a=b" true (Reasoner.same_entailed t "a" "b");
        Alcotest.(check bool) "a!=c" true (Reasoner.different_entailed t "a" "c");
        Alcotest.(check bool)
          "b=c open" false
          (Reasoner.same_entailed t "b" "c"));
    Alcotest.test_case "validate flags non-simple number restriction" `Quick
      (fun () ->
        let kb =
          Axiom.make
            ~tbox:[ Axiom.Transitive "r" ]
            ~abox:[ Axiom.Instance_of ("x", At_most (1, r)) ]
        in
        let t = Reasoner.create kb in
        Alcotest.(check bool) "warned" true (Reasoner.validate t <> []))
  ]

(* ------------------------------------------------------------------ *)
(* Model extraction *)

let model_tests =
  let check_model name kb ~expect_model =
    Alcotest.test_case name `Quick (fun () ->
        match Tableau.kb_model kb with
        | Some m ->
            Alcotest.(check bool) "expected a model" true expect_model;
            (* kb_model verifies internally; double-check anyway *)
            Alcotest.(check bool) "verified" true (Interp.is_model m kb)
        | None ->
            Alcotest.(check bool)
              "expected no (finite) model" false expect_model)
  in
  [ check_model "propositional model" ~expect_model:true
      (Axiom.make
         ~tbox:[ Axiom.Concept_sub (atom, b) ]
         ~abox:[ Axiom.Instance_of ("x", atom) ]);
    check_model "unsat KB has no model" ~expect_model:false
      (Axiom.make ~tbox:[] ~abox:[ Axiom.Instance_of ("x", And (atom, Not atom)) ]);
    check_model "existential chain model" ~expect_model:true
      (Axiom.make ~tbox:[]
         ~abox:[ Axiom.Instance_of ("x", Exists (r, Exists (s, atom))) ]);
    check_model "cyclic TBox model via blocking loop" ~expect_model:true
      (Axiom.make
         ~tbox:[ Axiom.Concept_sub (atom, Exists (r, atom)) ]
         ~abox:[ Axiom.Instance_of ("x", atom) ]);
    check_model "transitive role model" ~expect_model:true
      (Axiom.make
         ~tbox:[ Axiom.Transitive "r"; Axiom.Role_sub (r, s) ]
         ~abox:
           [ Axiom.Role_assertion ("x", r, "y");
             Axiom.Role_assertion ("y", r, "z");
             Axiom.Instance_of ("x", Forall (s, atom)) ]);
    check_model "number restriction model" ~expect_model:true
      (Axiom.make ~tbox:[]
         ~abox:[ Axiom.Instance_of ("x", And (At_least (2, r), At_most (3, r))) ]);
    check_model "datatype model" ~expect_model:true
      (Axiom.make ~tbox:[]
         ~abox:
           [ Axiom.Instance_of
               ( "x",
                 And
                   ( Data_exists ("u", Datatype.Int_range (Some 0, Some 5)),
                     Data_at_least (2, "u") ) ) ]);
    Alcotest.test_case "extracted model satisfies asserted facts" `Quick
      (fun () ->
        let kb =
          Axiom.make
            ~tbox:[ Axiom.Concept_sub (Atom "Penguin", Atom "Bird") ]
            ~abox:
              [ Axiom.Instance_of ("tweety", Atom "Penguin");
                Axiom.Role_assertion ("tweety", Role.name "likes", "w") ]
        in
        match Tableau.kb_model kb with
        | None -> Alcotest.fail "expected model"
        | Some m ->
            let tw = Interp.individual m "tweety" in
            Alcotest.(check bool)
              "tweety in Bird" true
              (Interp.ESet.mem tw (Interp.eval m (Atom "Bird")));
            Alcotest.(check bool)
              "likes edge" true
              (Interp.PSet.mem
                 (tw, Interp.individual m "w")
                 (Interp.role_ext m (Role.name "likes"))));
    Alcotest.test_case "reasoner facade exposes models" `Quick (fun () ->
        let t = Reasoner.create (Axiom.make ~tbox:[] ~abox:[ Axiom.Instance_of ("x", atom) ]) in
        Alcotest.(check bool) "some model" true (Reasoner.find_model t <> None));
    Alcotest.test_case "Para.find_model4 returns a verified 4-model" `Quick
      (fun () ->
        let t = Para.create Paper_examples.example2 in
        match Para.find_model4 t with
        | None -> Alcotest.fail "expected 4-model"
        | Some m ->
            Alcotest.(check bool)
              "is 4-model" true
              (Interp4.is_model m Paper_examples.example2))
  ]

(* ------------------------------------------------------------------ *)
(* Absorption: a name unfolds on [A] or on [¬A], never both *)

let absorption_tests =
  let kbar text = Transform.kb (Surface.parse_kb4_exn text) in
  let truths text a cs =
    let p = Para.create (Surface.parse_kb4_exn text) in
    List.map
      (fun c -> Truth.short_string (Para.instance_truth p a (Atom c)))
      cs
  in
  let strs = Alcotest.(list string) in
  [ Alcotest.test_case "a strong inclusion keeps ~A- internalized" `Quick
      (fun () ->
        (* B -> A gives A- << B-, a positive rule on A-, so the material
           ~A- << C+ must stay a GCI: unfolding it on ~A- too would read
           x as A- wherever its label lacks ~A-, without B- *)
        let text = "B -> A.
A |-> C.
x : B.
x : ~C.
" in
        Alcotest.check strs "x : A, C, B" [ "t"; "f"; "t" ]
          (truths text "x" [ "A"; "C"; "B" ]);
        match Tableau.kb_model (kbar text) with
        | None -> Alcotest.fail "expected a model"
        | Some m ->
            Alcotest.(check bool) "verified" true (Interp.is_model m (kbar text)));
    Alcotest.test_case "a negatively absorbed name reads true off ~A" `Quick
      (fun () ->
        (* ~Bird- unfolds; tweety's label never holds Bird-, and the
           extracted model still has to satisfy the material inclusion *)
        let kb = Transform.kb Paper_examples.example3 in
        match Tableau.kb_model kb with
        | None -> Alcotest.fail "expected a model"
        | Some m -> Alcotest.(check bool) "verified" true (Interp.is_model m kb));
    Alcotest.test_case "a name that holds unlabelled is branched on first"
      `Quick (fun () ->
        (* ~C |-> C makes C+ hold wherever ~C+ is absent, so the GCI of
           the last inclusion is satisfied by C+ at every node: trying
           C+ first answers in about 5,700 branches, trying the GCI's
           existential first explored over 200,000 *)
        let text =
          "~A < A.\n~C |-> C.\n(some r.C) -> (some r.B).\n\
           (only r.(~B | ~A)) < C.\ns(y, x).\nx : ~B.\nx : ~A.\n\
           x : (some r.C).\n"
        in
        let p =
          Para.create
            ~config:{ Oracle.default_config with max_branches = 10_000 }
            (Surface.parse_kb4_exn text)
        in
        Alcotest.(check string) "x : B" "f"
          (Truth.short_string (Para.instance_truth p "x" (Atom "B"))));
    Alcotest.test_case "a positive rule on a negatively absorbed name \
                        is not local" `Quick (fun () ->
        let k = kbar "A |-> C.
x : D.
" in
        let p = Tableau.prepare k in
        let delta = Transform.tbox_delta (Surface.parse_kb4_exn "B -> A.
").Kb4.tbox in
        (match delta with
        | [ b_a; a_b ] ->
            Alcotest.(check (option string))
              "B+ << A+ extends B+" (Some "B+") (Tableau.absorbable_lhs p b_a);
            Alcotest.(check (option string))
              "A- << B- flips A-" None (Tableau.absorbable_lhs p a_b)
        | _ -> Alcotest.fail "B -> A gives two classical axioms"))
  ]

(* ------------------------------------------------------------------ *)
(* Resource limits and engine statistics *)

let resource_tests =
  [ Alcotest.test_case "node limit raises Resource_limit" `Quick (fun () ->
        (* an infinite-model-only KB needs many nodes before blocking; a
           tiny limit trips first *)
        let kb =
          Axiom.make
            ~tbox:
              [ Axiom.Concept_sub (Top, Exists (r, atom));
                Axiom.Concept_sub (Top, Exists (s, b)) ]
            ~abox:[ Axiom.Instance_of ("x", Top) ]
        in
        match Tableau.kb_satisfiable ~max_nodes:2 kb with
        | exception Tableau.Resource_limit _ -> ()
        | _ -> Alcotest.fail "expected Resource_limit");
    Alcotest.test_case "branch limit raises Resource_limit" `Quick (fun () ->
        let kb =
          Axiom.make ~tbox:[]
            ~abox:
              [ Axiom.Instance_of
                  ( "x",
                    conj
                      (List.init 6 (fun i ->
                           Or
                             ( Atom (Printf.sprintf "P%d" i),
                               Atom (Printf.sprintf "Q%d" i) ))) ) ]
        in
        match Tableau.kb_satisfiable ~max_branches:2 kb with
        | exception Tableau.Resource_limit _ -> ()
        | (_ : bool) ->
            (* a very lucky search could finish within the budget, but the
               six independent disjunctions need at least six choices *)
            Alcotest.fail "expected Resource_limit");
    Alcotest.test_case "stats count work" `Quick (fun () ->
        let stats = Tableau.fresh_stats () in
        let kb =
          Axiom.make ~tbox:[]
            ~abox:
              [ Axiom.Instance_of ("x", Exists (r, Exists (r, atom)));
                Axiom.Instance_of ("x", Or (atom, b)) ]
        in
        Alcotest.(check bool) "sat" true (Tableau.kb_satisfiable ~stats kb);
        Alcotest.(check bool)
          "created successors" true
          (stats.Tableau.nodes_created >= 2);
        Alcotest.(check bool)
          "explored a branch" true
          (stats.Tableau.branches_explored >= 1))
  ]

(* ------------------------------------------------------------------ *)
(* Combined-feature stress cases *)

let stress_tests =
  [ check_sat "hierarchy + transitivity + inverse + numbers" true
      (sat
         ~tbox:
           [ Axiom.Role_sub (r, s);
             Axiom.Transitive "s";
             Axiom.Concept_sub (atom, Exists (r, atom)) ]
         ~abox:
           [ Axiom.Instance_of ("x", atom);
             Axiom.Instance_of ("x", At_most (3, s));
             Axiom.Instance_of ("x", Forall (s, b)) ]
         ());
    check_sat "deep unsatisfiable chain through hierarchy" false
      (sat
         ~tbox:
           [ Axiom.Role_sub (r, s);
             Axiom.Transitive "s";
             Axiom.Concept_sub (atom, Exists (r, atom)) ]
         ~abox:
           [ Axiom.Instance_of ("x", atom);
             (* every s-reachable node is ~A, but the r-chain is all A *)
             Axiom.Instance_of ("x", Forall (s, Not atom)) ]
         ());
    check_sat "nominal + number restriction interplay" false
      (sat
         ~abox:
           [ Axiom.Instance_of ("x", At_most (1, r));
             Axiom.Role_assertion ("x", r, "a");
             Axiom.Role_assertion ("x", r, "b");
             Axiom.Instance_of ("a", atom);
             Axiom.Instance_of ("b", Not atom);
             Axiom.Different ("a", "b") ]
         ());
    check_sat "disjunction over quantifiers picks workable branch" true
      (csat
         ~tbox:[ Axiom.Concept_sub (atom, Bottom) ]
         (Or (Exists (r, atom), Exists (r, b))));
    check_sat "three-level alternating quantifiers unsat" false
      (csat
         (conj
            [ Exists (r, Forall (s, atom));
              Forall (r, Exists (s, b));
              Forall (r, Forall (s, Not atom)) ]));
    check_sat "merge cascades through equalities" false
      (sat
         ~abox:
           [ Axiom.Same ("a", "b");
             Axiom.Same ("b", "c");
             Axiom.Instance_of ("a", atom);
             Axiom.Instance_of ("c", Not atom) ]
         ())
  ]

(* ------------------------------------------------------------------ *)
(* The base: a prep's told ABox saturated once, by the first run that
   needs it, and shared by the runs after it *)

let base_tests =
  let checkb = Alcotest.(check bool) and checki = Alcotest.(check int) in
  let kb abox = Axiom.make ~tbox:[ Axiom.Concept_sub (atom, b) ] ~abox in
  let x_a = Axiom.Instance_of ("x", atom) in
  let delta text =
    match Delta.parse text with Ok d -> d | Error e -> Alcotest.fail e
  in
  [ Alcotest.test_case "a told ABox that clashes by itself answers unsat"
      `Quick (fun () ->
        List.iter
          (fun (name, told) ->
            let t = Reasoner.create (kb (x_a :: told)) in
            let answers =
              [ Reasoner.is_consistent t;
                Reasoner.concept_satisfiable t Top;
                Reasoner.consistent_with t [ Axiom.Instance_of ("x", b) ];
                Reasoner.consistent_with t [ Axiom.Instance_of ("y", c) ] ]
            in
            Alcotest.(check (list bool)) name [ false; false; false; false ]
              answers;
            checki (name ^ ": every run counted") 4
              (Reasoner.stats t).Tableau.runs)
          [ ("a = b, a != b", [ Axiom.Same ("a", "b"); Axiom.Different ("a", "b") ]);
            ("a != b, a = b", [ Axiom.Different ("a", "b"); Axiom.Same ("a", "b") ])
          ]);
    Alcotest.test_case "a node budget below the told individuals trips \
                        every run" `Quick (fun () ->
        let p =
          Tableau.prepare
            (kb
               [ x_a;
                 Axiom.Instance_of ("y", atom);
                 Axiom.Instance_of ("z", atom) ])
        in
        let stats = Tableau.fresh_stats () in
        let run max_nodes =
          Option.is_some
            (Tableau.prepared_run ~max_nodes ~stats p
               [ Axiom.Instance_of ("x", Not b) ])
        in
        let trips max_nodes =
          match run max_nodes with
          | exception Tableau.Resource_limit _ -> true
          | (_ : bool) -> false
        in
        checkb "the first run trips" true (trips 2);
        checkb "so does the second" true (trips 2);
        (* each run built two of the three told nodes again: a trip
           leaves no base behind *)
        checki "nodes" 4 stats.Tableau.nodes_created;
        checkb "a run with room answers" false (run 20_000);
        checki "and builds the base" 7 stats.Tableau.nodes_created;
        checkb "a smaller budget still trips" true (trips 2);
        checki "on the base, creating nothing" 7 stats.Tableau.nodes_created;
        checkb "the base serves a later run" false (run 20_000);
        checki "nodes after it" 7 stats.Tableau.nodes_created;
        checki "runs" 5 stats.Tableau.runs);
    Alcotest.test_case "deltas after the base is built are seen" `Quick
      (fun () ->
        let t = Reasoner.create (kb [ x_a; Axiom.Instance_of ("y", c) ]) in
        let entailed () = Reasoner.instance_of t "x" b in
        checkb "x : B" true (entailed ());
        Reasoner.apply_delta t ~add_abox:[] ~retract_abox:[ x_a ] ~add_tbox:[];
        checkb "x : B once x : A is retracted" false (entailed ());
        Reasoner.apply_delta t ~add_abox:[ x_a ] ~retract_abox:[] ~add_tbox:[];
        checkb "x : B once it is added back" true (entailed ()));
    Alcotest.test_case "an added a != b closes a neighbour's <= 1" `Quick
      (fun () ->
        (* the extension's pass touches a and b only; x, whose two
           r-successors they are, must be checked again too *)
        let t =
          Reasoner.create
            (kb
               [ Axiom.Instance_of ("x", At_most (1, r));
                 Axiom.Role_assertion ("x", r, "a");
                 Axiom.Role_assertion ("x", r, "b") ])
        in
        checkb "consistent: a and b can be one" true (Reasoner.is_consistent t);
        Reasoner.apply_delta t
          ~add_abox:[ Axiom.Different ("a", "b") ]
          ~retract_abox:[] ~add_tbox:[];
        checkb "inconsistent once they are distinct" false
          (Reasoner.is_consistent t));
    Alcotest.test_case "an addition whose extension clashes flips \
                        consistency and flushes" `Quick (fun () ->
        let o = Oracle.of_config Oracle.default_config
            (Surface.parse_kb4_exn "a != b.\nx : A.\ny : B.\n")
        in
        checkb "consistent" true (Oracle.check o Oracle.Consistent);
        checkb "x : A" true (Oracle.check o (Oracle.Instance ("x", atom)));
        checkb "y : B" true (Oracle.check o (Oracle.Instance ("y", b)));
        let s = Oracle.apply o (delta "+ a = b.\n") in
        checkb "flipped" true s.Oracle.consistency_flipped;
        checkb "flushed" true s.Oracle.flushed;
        checki "only the consistency bit is kept" 1 s.Oracle.retained;
        checkb "inconsistent" false (Oracle.check o Oracle.Consistent));
    Alcotest.test_case "a tripped script rolled back answers the old KB"
      `Quick (fun () ->
        (* two told individuals fit a budget of three nodes; the second
           delta's third individual does not *)
        let o =
          Oracle.of_config
            { Oracle.default_config with Oracle.max_nodes = 3 }
            (Surface.parse_kb4_exn "x : A.\ny : B.\n")
        in
        let z_c = Oracle.Instance ("z", c) in
        let ckb0 = Oracle.classical_kb o in
        checkb "x : A" true (Oracle.check o (Oracle.Instance ("x", atom)));
        (match
           Oracle.atomically o (fun () ->
               ignore (Oracle.apply o (delta "+ z : C.\n") : Oracle.apply_stats);
               checkb "z : C inside the script" true (Oracle.check o z_c);
               Oracle.apply o (delta "+ w : C.\n"))
         with
        | _ -> Alcotest.fail "the second delta must trip"
        | exception Tableau.Resource_limit _ -> ());
        checkb "the classical KB is the old one" true
          (Oracle.classical_kb o = ckb0);
        checkb "z : C no longer" false (Oracle.check o z_c);
        checkb "x : A still" true (Oracle.check o (Oracle.Instance ("x", atom)))) ]

(* ------------------------------------------------------------------ *)
(* The witness: one verified model of K̄ per prep, read from the first
   satisfiable run, that decides non-entailments without a run.  Each
   case is checked against runs alone on a fresh reasoner. *)

(* What runs alone answer on a fresh reasoner, query by query. *)
let by_runs kbar (q : Backend.query) =
  let sat extra = Reasoner.consistent_with (Reasoner.create kbar) extra in
  match q with
  | Consistent -> sat []
  | Concept_sat c -> sat [ Axiom.Instance_of ("q:fresh", c) ]
  | Instance (a, c) -> not (sat [ Transform.instance_query c a ])
  | Not_instance (a, c) -> not (sat [ Transform.negative_instance_query c a ])
  | Role_pos (a, r, b) ->
      Reasoner.role_entailed (Reasoner.create kbar) a (Transform.plus_role r) b
  | Role_neg (a, r, b) ->
      not (sat [ Axiom.Role_assertion (a, Transform.eq_role r, b) ])

let witness_tests =
  let checkb = Alcotest.(check bool) and checki = Alcotest.(check int) in
  let oracle text =
    Oracle.of_config Oracle.default_config (Surface.parse_kb4_exn text)
  in
  (* the verdict, the fresh one, and the runs its cost record holds *)
  let ask o q =
    let v = Oracle.check o q in
    checkb (Backend.query_to_string q ^ " = runs alone") (by_runs (Oracle.classical_kb o) q) v;
    let runs =
      match Oracle.cost o q with
      | Some c -> c.Oracle.c_work.Tableau.runs
      | None -> Alcotest.fail "no cost record"
    in
    (v, runs)
  in
  let x = "x" and y = "y" in
  [ Alcotest.test_case "a verdict the witness decides costs 0 runs" `Quick
      (fun () ->
        let o = oracle "x : A.\ny : B.\nr(x, z).\n" in
        checkb "y : A not entailed, by a run" false
          (fst (ask o (Oracle.Instance (y, atom))));
        let v, runs = ask o (Oracle.Instance (x, b)) in
        checkb "x : B not entailed" false v;
        checki "no run" 0 runs;
        let v, runs = ask o (Oracle.Instance (x, atom)) in
        checkb "an entailment is a run" true (v && runs = 1);
        let v, runs = ask o (Oracle.Role_pos (x, r, y)) in
        checkb "r(x, y) not entailed, by the witness" true ((not v) && runs = 0);
        let v, runs = ask o (Oracle.Role_pos (x, r, "z")) in
        checkb "r(x, z) entailed, by a run" true (v && runs = 1);
        let v, runs = ask o (Oracle.Role_neg (x, r, y)) in
        checkb "not r(x, y) not entailed, r inert" true ((not v) && runs = 0);
        let v, runs = ask o Oracle.Consistent in
        checkb "consistent, by the witness" true (v && runs = 0));
    Alcotest.test_case "a disjunct the witness chose falls back to a run"
      `Quick (fun () ->
        let o = oracle "x : A | B.\n" in
        ignore (ask o Oracle.Consistent : bool * int);
        let w = Option.get (Reasoner.witness (Oracle.reasoner o)) in
        checkb "the witness chose A" true
          (Interp.satisfies_abox w
             (Axiom.Instance_of (x, Transform.concept_pos atom)));
        let v, runs = ask o (Oracle.Instance (x, atom)) in
        checkb "x : A not entailed, by a run" true ((not v) && runs = 1);
        let v, runs = ask o (Oracle.Not_instance (x, atom)) in
        checkb "x : ~A not entailed, by the witness" true ((not v) && runs = 0);
        Alcotest.(check string) "x : A is N" "N"
          (Truth.short_string
             (Para.instance_truth (Para.create (Oracle.kb o)) x atom)));
    Alcotest.test_case "<= 1 r puts r= in a concept: not r(a, b) runs" `Quick
      (fun () ->
        List.iter
          (fun (text, expected) ->
            let o = oracle text in
            ignore (ask o (Oracle.Instance (y, atom)) : bool * int);
            checkb "a witness" true (Reasoner.witness (Oracle.reasoner o) <> None);
            let v, runs = ask o (Oracle.Role_neg (x, r, y)) in
            checkb (text ^ ": not r(x, y)") expected v;
            checki (text ^ ": runs") 1 runs)
          [ ("A < <= 1 r.\nx : A.\nr(x, z).\n", false);
            ("A < <= 0 r.\nx : A.\n", true) ]);
    Alcotest.test_case "no witness when the candidate fails verification"
      `Quick (fun () ->
        (* the blocked node mirrors its witness's outgoing s-edge, so
           its parent is left without the s-predecessor A asks for *)
        let text = "A < some s^-.A.\nx : A.\ny : B.\nr(x, y).\n" in
        let kbar = Transform.kb (Surface.parse_kb4_exn text) in
        checkb "satisfiable" true (Tableau.kb_satisfiable kbar);
        checkb "no model read" true (Tableau.kb_model kbar = None);
        let o = oracle text in
        List.iter
          (fun q -> ignore (ask o q : bool * int))
          [ Oracle.Consistent;
            Oracle.Instance (x, b);
            Oracle.Not_instance (y, atom);
            Oracle.Role_pos (y, r, x);
            Oracle.Role_neg (x, r, y);
            Oracle.Concept_sat (Transform.concept_pos (And (atom, b))) ];
        checkb "no witness" true (Reasoner.witness (Oracle.reasoner o) = None));
    Alcotest.test_case "deltas patch, keep and drop the witness" `Quick
      (fun () ->
        let kbar = Axiom.make ~tbox:[] ~abox:[ Axiom.Instance_of (x, atom) ] in
        let t = Reasoner.create kbar in
        checkb "consistent" true (Reasoner.is_consistent t);
        let w0 = Option.get (Reasoner.witness t) in
        (* K̄ ⊨ C(x) as the tableau backend decides it: the witness
           first, then a run; and as a fresh reasoner does *)
        let agrees name =
          List.iter
            (fun c ->
              let refuted =
                Reasoner.witness_holds t (fun w ->
                    Interp.satisfies_abox w (Axiom.Instance_of (x, Not c)))
              in
              checkb name
                (Reasoner.instance_of (Reasoner.create (Reasoner.kb t)) x c)
                ((not refuted) && Reasoner.instance_of t x c))
            [ atom; b; c ]
        in
        let kept w = match Reasoner.witness t with Some w' -> w' == w | None -> false in
        let c_x = Axiom.Instance_of (x, c) in
        Reasoner.apply_delta t ~add_abox:[ c_x ] ~retract_abox:[] ~add_tbox:[];
        let w1 = Option.get (Reasoner.witness t) in
        checkb "+ x : C patched in" true (Interp.satisfies_abox w1 c_x);
        checkb "and verified" true (Interp.is_model w1 (Reasoner.kb t));
        checkb "a new model" true (w1 != w0);
        agrees "after + x : C";
        Reasoner.apply_delta t ~add_abox:[] ~retract_abox:[ c_x ] ~add_tbox:[];
        checkb "a retraction keeps it" true (kept w1);
        agrees "after - x : C";
        Reasoner.apply_delta t ~add_abox:[] ~retract_abox:[]
          ~add_tbox:[ Axiom.Concept_sub (b, c) ];
        checkb "a TBox axiom it satisfies keeps it" true (kept w1);
        Reasoner.apply_delta t ~add_abox:[] ~retract_abox:[]
          ~add_tbox:[ Axiom.Concept_sub (atom, b) ];
        checkb "one it violates drops it" true (Reasoner.witness t = None);
        agrees "after A < B";
        checkb "x : B entailed" true (Reasoner.instance_of t x b));
    Alcotest.test_case "an addition naming an individual the witness lacks"
      `Quick (fun () ->
        (* [c] first occurs in the added axiom, so the witness cannot
           check it: the delta drops the witness, the update applies,
           and every verdict after it is a rebuilt oracle's *)
        let t = Reasoner.create (Axiom.make ~tbox:[] ~abox:[ Axiom.Instance_of (x, atom) ]) in
        checkb "consistent" true (Reasoner.is_consistent t);
        checkb "a witness" true (Reasoner.witness t <> None);
        Reasoner.apply_delta t ~add_abox:[] ~retract_abox:[]
          ~add_tbox:[ Axiom.Concept_sub (atom, One_of [ "c" ]) ];
        checkb "A < {c} drops it" true (Reasoner.witness t = None);
        checkb "still consistent" true (Reasoner.is_consistent t);
        List.iter
          (fun script ->
            let o = oracle "x : A.\ny : B.\n" in
            ignore (ask o Oracle.Consistent : bool * int);
            ignore (ask o (Oracle.Instance (x, b)) : bool * int);
            checkb "a witness" true (Reasoner.witness (Oracle.reasoner o) <> None);
            let delta = Result.get_ok (Delta.parse script) in
            ignore (Oracle.apply o delta : Oracle.apply_stats);
            checkb (script ^ ": any witness models the new K̄") true
              (match Reasoner.witness (Oracle.reasoner o) with
              | Some w -> Interp.is_model w (Oracle.classical_kb o)
              | None -> true);
            let fresh = oracle "x : A.\ny : B.\n" in
            ignore (Oracle.apply fresh delta : Oracle.apply_stats);
            let rebuilt = Oracle.of_config Oracle.default_config (Oracle.kb fresh) in
            List.iter
              (fun q ->
                let v, _ = ask o q in
                checkb (script ^ ": " ^ Backend.query_to_string q ^ " = rebuilt")
                  (Oracle.check rebuilt q) v)
              [ Oracle.Consistent;
                Oracle.Instance (x, atom);
                Oracle.Instance (x, b);
                Oracle.Not_instance (y, atom);
                Oracle.Instance ("c", atom);
                Oracle.Role_pos (x, r, y);
                Oracle.Role_neg (x, r, y) ])
          [ "+ A < {c}."; "+ B < ~{c}."; "+ c : A." ]) ]

let () =
  Alcotest.run "tableau"
    [ ("basic", basic_tests);
      ("quantifiers", quantifier_tests);
      ("tbox", tbox_tests);
      ("roles", role_tests);
      ("inverse", inverse_tests);
      ("numbers", number_tests);
      ("nominals", nominal_tests);
      ("abox", abox_tests);
      ("datatypes", datatype_tests);
      ("services", services_tests);
      ("models", model_tests);
      ("absorption", absorption_tests);
      ("resources", resource_tests);
      ("base", base_tests);
      ("witness", witness_tests);
      ("stress", stress_tests) ]
