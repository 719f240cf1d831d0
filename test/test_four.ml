(* Tests for Belnap's FOUR, bilattices, and the propositional four-valued
   logic — including machine checks of Propositions 1 and 2 of the paper and
   the two counterexamples of §2.2. *)

open Truth

let tv = Alcotest.testable Truth.pp Truth.equal

let check_tv name expected got =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check tv) name expected got)

(* ------------------------------------------------------------------ *)
(* Truth tables *)

let truth_table_tests =
  [ check_tv "neg t = f" False (neg True);
    check_tv "neg f = t" True (neg False);
    check_tv "neg TOP = TOP" Both (neg Both);
    check_tv "neg BOT = BOT" Neither (neg Neither);
    check_tv "t /\\ f = f" False (conj True False);
    check_tv "t /\\ TOP = TOP" Both (conj True Both);
    check_tv "TOP /\\ BOT = f" False (conj Both Neither);
    check_tv "TOP \\/ BOT = t" True (disj Both Neither);
    check_tv "f \\/ TOP = TOP" Both (disj False Both);
    check_tv "t \\/ BOT = t" True (disj True Neither);
    check_tv "consensus(t, f) = BOT" Neither (consensus True False);
    check_tv "gullibility(t, f) = TOP" Both (gullibility True False);
    Alcotest.test_case "de Morgan on all pairs" `Quick (fun () ->
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                Alcotest.(check tv)
                  "~(a /\\ b) = ~a \\/ ~b"
                  (neg (conj a b))
                  (disj (neg a) (neg b)))
              all)
          all);
    Alcotest.test_case "negation is involutive" `Quick (fun () ->
        List.iter (fun a -> Alcotest.(check tv) "~~a = a" a (neg (neg a))) all);
    Alcotest.test_case "conj is meet for leq_t" `Quick (fun () ->
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                let m = conj a b in
                Alcotest.(check bool) "m <=t a" true (leq_t m a);
                Alcotest.(check bool) "m <=t b" true (leq_t m b);
                List.iter
                  (fun c ->
                    if leq_t c a && leq_t c b then
                      Alcotest.(check bool) "c <=t m" true (leq_t c m))
                  all)
              all)
          all);
    Alcotest.test_case "orders: TOP and BOT incomparable in <=t" `Quick
      (fun () ->
        Alcotest.(check bool) "TOP <=t BOT" false (leq_t Both Neither);
        Alcotest.(check bool) "BOT <=t TOP" false (leq_t Neither Both);
        Alcotest.(check bool) "f <=t TOP" true (leq_t False Both);
        Alcotest.(check bool) "TOP <=t t" true (leq_t Both True));
    Alcotest.test_case "orders: t and f incomparable in <=k" `Quick (fun () ->
        Alcotest.(check bool) "t <=k f" false (leq_k True False);
        Alcotest.(check bool) "BOT <=k t" true (leq_k Neither True);
        Alcotest.(check bool) "t <=k TOP" true (leq_k True Both))
  ]

(* ------------------------------------------------------------------ *)
(* The three implications (§2.2) *)

let implication_tests =
  [ check_tv "TOP |-> f is designated (material tolerates exceptions)" Both
      (material_implication Both False);
    check_tv "TOP => f = f (internal does not)" False
      (internal_implication Both False);
    Alcotest.test_case "strong implication not designated from TOP to f"
      `Quick (fun () ->
        Alcotest.(check bool)
          "designated" false
          (designated (strong_implication Both False)));
    Alcotest.test_case "BOT |-> x designated iff conclusion designated"
      `Quick (fun () ->
        (* §2.2: with an unknown precondition, material implication holds
           exactly when the conclusion has information of being true *)
        List.iter
          (fun x ->
            Alcotest.(check bool)
              "designated" (designated x)
              (designated (material_implication Neither x)))
          all);
    check_tv "t => x = x" Both (internal_implication True Both);
    check_tv "f => anything = t" True (internal_implication False Both)
  ]

(* ------------------------------------------------------------------ *)
(* Propositions 1 and 2, and the counterexamples, over Prop4 *)

open Prop4

let p = atom "p"
let q = atom "q"
let rf = atom "r"

let check_bool name expected got =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check bool) name expected got)

let prop4_tests =
  [ (* Proposition 1 (deduction property of ⊃), second half:
       Γ ⊨ ψ and Γ ⊨ ψ ⊃ φ implies Γ ⊨ φ — check a few instances by
       brute-force over valuations via a conditional encoding. *)
    check_bool "modus ponens for internal implication" true
      (entails [ p; Internal (p, q) ] q);
    check_bool "deduction: p, q |= p => q" true (entails [ q ] (Internal (p, q)));
    check_bool "no modus ponens for material implication" false
      (entails [ p; Material (p, q) ] q);
    (* Counterexample 1: {ψ, ¬ψ, ¬φ} ⊨ ψ ↦ φ but {ψ, ¬ψ, ¬φ} ⊭ φ *)
    check_bool "counterexample: psi,~psi,~phi |= psi |-> phi" true
      (entails [ p; neg p; neg q ] (Material (p, q)));
    check_bool "counterexample: psi,~psi,~phi |/= phi" false
      (entails [ p; neg p; neg q ] q);
    (* Counterexample 2: {ψ, φ, ¬φ} ⊨ φ but {φ, ¬φ} ⊭ ψ → φ *)
    check_bool "counterexample: psi,phi,~phi |= phi" true
      (entails [ p; q; neg q ] q);
    check_bool "counterexample: phi,~phi |/= psi -> phi" false
      (entails [ q; neg q ] (Strong (p, q)));
    (* Proposition 2: ↔ is a congruence for schemata. A representative
       schema Θ(x) = x ∧ r. *)
    check_bool "strong equivalence is congruent for /\\ r" true
      (entails [ Equiv (p, q) ] (Equiv (p &&& rf, q &&& rf)));
    check_bool "strong equivalence congruent under negation" true
      (entails [ Equiv (p, q) ] (Equiv (neg p, neg q)));
    check_bool "strong equivalence congruent under some nesting" true
      (entails [ Equiv (p, q) ] (Equiv (neg (p ||| rf), neg (q ||| rf))));
    (* Paraconsistency vs triviality *)
    check_bool "four-valued: contradiction does not explode" false
      (entails [ p; neg p ] q);
    check_bool "classical: contradiction explodes" true
      (entails_classically [ p; neg p ] q);
    check_bool "four-valued entailment is reflexive" true (entails [ p ] p);
    check_bool "conjunction elimination" true (entails [ p &&& q ] p);
    check_bool "disjunction introduction" true (entails [ p ] (p ||| q));
    (* Excluded middle fails four-valuedly *)
    check_bool "excluded middle is not 4-valid" false (valid (p ||| neg p));
    check_bool "excluded middle is classically valid" true
      (entails_classically [] (p ||| neg p))
  ]

(* ------------------------------------------------------------------ *)
(* Signed tableau agrees with the semantics *)

let tableau_tests =
  [ check_bool "tableau: modus ponens for internal implication" true
      (Prop4_tableau.entails [ p; Internal (p, q) ] q);
    check_bool "tableau: no explosion from contradiction" false
      (Prop4_tableau.entails [ p; neg p ] q);
    check_bool "tableau: conjunction elimination" true
      (Prop4_tableau.entails [ p &&& q ] q);
    check_bool "tableau: no excluded middle" false
      (Prop4_tableau.valid (p ||| neg p));
    check_bool "tableau: reflexivity" true (Prop4_tableau.entails [ p ] p);
    check_bool "tableau: counterexample 1 (material)" true
      (Prop4_tableau.entails [ p; neg p; neg q ] (Material (p, q)));
    check_bool "tableau: counterexample 1 (no detachment)" false
      (Prop4_tableau.entails [ p; neg p; neg q ] q);
    check_bool "tableau: strong implication contraposes" true
      (Prop4_tableau.entails [ Strong (p, q); neg q ] (neg p));
    check_bool "tableau: internal implication does not contrapose" false
      (Prop4_tableau.entails [ Internal (p, q); neg q ] (neg p));
    check_bool "tableau: T and F signs coexist (paraconsistency)" true
      (Prop4_tableau.satisfiable [ (Prop4_tableau.T, p); (Prop4_tableau.F, p) ]);
    check_bool "tableau: T and NT signs clash" false
      (Prop4_tableau.satisfiable
         [ (Prop4_tableau.T, p); (Prop4_tableau.NT, p) ]);
    Alcotest.test_case "tableau agrees with enumeration on a formula pool"
      `Quick (fun () ->
        let pool =
          [ ([ p; Internal (p, q) ], q);
            ([ p &&& neg p ], q);
            ([ Material (p, q); p ], q);
            ([ Strong (p, q); p ], q);
            ([ Equiv (p, q); p ], q);
            ([ neg (p ||| q) ], neg p);
            ([ p ||| q; neg p ], q);
            ([], Internal (p, p));
            ([], Material (p &&& q, p));
            ([ Internal (p, q); Internal (q, rf) ], Internal (p, rf)) ]
        in
        List.iter
          (fun (gamma, phi) ->
            Alcotest.(check bool)
              (Format.asprintf "%a" Prop4.pp phi)
              (Prop4.entails gamma phi)
              (Prop4_tableau.entails gamma phi))
          pool);
    Alcotest.test_case "tableau decides nested equivalences without re-expansion"
      `Quick (fun () ->
        (* p <-> (((p |-> q) -> (q -> p)) <-> (p <-> (q \/ p))), q \/ r, p
           |- r -> ~q: each <-> and -> copies its operands, so a tableau
           that expands a signed formula again on every reappearance
           does not finish this in seconds *)
        let gamma =
          [ Equiv
              ( p,
                Equiv (Strong (Material (p, q), Strong (q, p)), Equiv (p, Or (q, p)))
              );
            Or (q, rf);
            p ]
        in
        let phi = Strong (rf, neg q) in
        Alcotest.(check bool) "enumeration: not entailed" false
          (Prop4.entails gamma phi);
        Alcotest.(check bool) "tableau: not entailed" false
          (Prop4_tableau.entails gamma phi))
  ]

(* ------------------------------------------------------------------ *)
(* Bilattice of sets *)

module B = Bilattice.Make (Int)

let bilattice_tests =
  [ Alcotest.test_case "projections" `Quick (fun () ->
        let v = B.make ~pos:(B.S.of_list [ 1; 2 ]) ~neg:(B.S.of_list [ 2; 3 ]) in
        Alcotest.(check (list int)) "proj+" [ 1; 2 ] (B.S.elements (B.proj_pos v));
        Alcotest.(check (list int)) "proj-" [ 2; 3 ] (B.S.elements (B.proj_neg v)));
    Alcotest.test_case "meet_t per the paper" `Quick (fun () ->
        let v1 = B.make ~pos:(B.S.of_list [ 1; 2 ]) ~neg:(B.S.of_list [ 3 ]) in
        let v2 = B.make ~pos:(B.S.of_list [ 2; 4 ]) ~neg:(B.S.of_list [ 5 ]) in
        let m = B.meet_t v1 v2 in
        Alcotest.(check (list int)) "pos inter" [ 2 ] (B.S.elements m.B.pos);
        Alcotest.(check (list int)) "neg union" [ 3; 5 ] (B.S.elements m.B.neg));
    Alcotest.test_case "truth_value_of all four cases" `Quick (fun () ->
        let v = B.make ~pos:(B.S.of_list [ 1; 2 ]) ~neg:(B.S.of_list [ 2; 3 ]) in
        Alcotest.(check tv) "1:t" True (B.truth_value_of v 1);
        Alcotest.(check tv) "2:TOP" Both (B.truth_value_of v 2);
        Alcotest.(check tv) "3:f" False (B.truth_value_of v 3);
        Alcotest.(check tv) "4:BOT" Neither (B.truth_value_of v 4));
    Alcotest.test_case "classical embedding round-trip" `Quick (fun () ->
        let domain = B.S.of_list [ 1; 2; 3 ] in
        let v = B.classical ~domain (B.S.of_list [ 1 ]) in
        Alcotest.(check bool) "classical" true (B.is_classical ~domain v);
        Alcotest.(check tv) "1:t" True (B.truth_value_of v 1);
        Alcotest.(check tv) "2:f" False (B.truth_value_of v 2));
    Alcotest.test_case "negation swaps projections" `Quick (fun () ->
        let v = B.make ~pos:(B.S.of_list [ 1 ]) ~neg:(B.S.of_list [ 2 ]) in
        let n = B.neg v in
        Alcotest.(check (list int)) "pos" [ 2 ] (B.S.elements n.B.pos);
        Alcotest.(check (list int)) "neg" [ 1 ] (B.S.elements n.B.neg))
  ]

let () =
  Alcotest.run "four"
    [ ("truth-tables", truth_table_tests);
      ("implications", implication_tests);
      ("prop4", prop4_tests);
      ("prop4-tableau", tableau_tests);
      ("bilattice", bilattice_tests) ]
