(* Tests for the DL syntax layer: roles, concepts, NNF, signatures, KBs. *)

let concept = Alcotest.testable Concept.pp Concept.equal

open Concept

let a = Atom "A"
let b = Atom "B"
let r = Role.name "r"

let role_tests =
  [ Alcotest.test_case "inverse is involutive" `Quick (fun () ->
        Alcotest.(check bool)
          "inv inv r = r" true
          (Role.equal r (Role.inv (Role.inv r))));
    Alcotest.test_case "base of inverse" `Quick (fun () ->
        Alcotest.(check string) "base" "r" (Role.base (Role.inv r)));
    Alcotest.test_case "is_inverse" `Quick (fun () ->
        Alcotest.(check bool) "plain" false (Role.is_inverse r);
        Alcotest.(check bool) "inv" true (Role.is_inverse (Role.inv r)))
  ]

let nnf_tests =
  [ Alcotest.test_case "nnf of atom is atom" `Quick (fun () ->
        Alcotest.check concept "a" a (nnf a));
    Alcotest.test_case "double negation" `Quick (fun () ->
        Alcotest.check concept "~~A = A" a (nnf (Not (Not a))));
    Alcotest.test_case "de Morgan conj" `Quick (fun () ->
        Alcotest.check concept "~(A & B)"
          (Or (Not a, Not b))
          (nnf (Not (And (a, b)))));
    Alcotest.test_case "de Morgan disj" `Quick (fun () ->
        Alcotest.check concept "~(A | B)"
          (And (Not a, Not b))
          (nnf (Not (Or (a, b)))));
    Alcotest.test_case "neg exists" `Quick (fun () ->
        Alcotest.check concept "~some r.A"
          (Forall (r, Not a))
          (nnf (Not (Exists (r, a)))));
    Alcotest.test_case "neg forall" `Quick (fun () ->
        Alcotest.check concept "~only r.A"
          (Exists (r, Not a))
          (nnf (Not (Forall (r, a)))));
    Alcotest.test_case "neg at-least" `Quick (fun () ->
        Alcotest.check concept "~>=2 r" (At_most (1, r)) (nnf (Not (At_least (2, r)))));
    Alcotest.test_case "neg at-least 0 is Bottom" `Quick (fun () ->
        Alcotest.check concept "~>=0 r" Bottom (nnf (Not (At_least (0, r)))));
    Alcotest.test_case "neg at-most" `Quick (fun () ->
        Alcotest.check concept "~<=2 r" (At_least (3, r)) (nnf (Not (At_most (2, r)))));
    Alcotest.test_case "neg top/bottom" `Quick (fun () ->
        Alcotest.check concept "~Top" Bottom (nnf (Not Top));
        Alcotest.check concept "~Bottom" Top (nnf (Not Bottom)));
    Alcotest.test_case "nnf is idempotent on a nested example" `Quick (fun () ->
        let c = Not (And (Or (a, Not b), Exists (r, Not (Forall (r, a))))) in
        let n = nnf c in
        Alcotest.(check bool) "is_nnf" true (is_nnf n);
        Alcotest.check concept "idempotent" n (nnf n));
    Alcotest.test_case "neg data exists" `Quick (fun () ->
        Alcotest.check concept "~some u:D"
          (Data_forall ("u", Datatype.Complement Datatype.Int_type))
          (nnf (Not (Data_exists ("u", Datatype.Int_type)))))
  ]

let smart_constructor_tests =
  [ Alcotest.test_case "conj of empty is Top" `Quick (fun () ->
        Alcotest.check concept "empty" Top (conj []));
    Alcotest.test_case "conj drops Top, short-circuits Bottom" `Quick (fun () ->
        Alcotest.check concept "drop top" a (conj [ Top; a ]);
        Alcotest.check concept "bottom" Bottom (conj [ a; Bottom; b ]));
    Alcotest.test_case "disj of empty is Bottom" `Quick (fun () ->
        Alcotest.check concept "empty" Bottom (disj []));
    Alcotest.test_case "neg smart constructor eliminates double negation"
      `Quick (fun () ->
        Alcotest.check concept "neg" a (neg (neg a)))
  ]

let measure_tests =
  [ Alcotest.test_case "size counts nodes" `Quick (fun () ->
        Alcotest.(check int) "size" 3 (size (And (a, b)));
        Alcotest.(check int) "size atom" 1 (size a));
    Alcotest.test_case "depth counts quantifier nesting" `Quick (fun () ->
        Alcotest.(check int) "flat" 0 (depth (And (a, b)));
        Alcotest.(check int) "one" 1 (depth (Exists (r, a)));
        Alcotest.(check int) "two" 2 (depth (Exists (r, Forall (r, a)))));
    Alcotest.test_case "subconcepts of nested concept" `Quick (fun () ->
        let c = And (a, Exists (r, b)) in
        let subs = subconcepts c in
        Alcotest.(check bool) "self" true (List.mem c subs);
        Alcotest.(check bool) "a" true (List.mem a subs);
        Alcotest.(check bool) "b" true (List.mem b subs);
        Alcotest.(check bool) "exists" true (List.mem (Exists (r, b)) subs);
        Alcotest.(check int) "count" 4 (List.length subs))
  ]

let signature_tests =
  [ Alcotest.test_case "concept signature pieces" `Quick (fun () ->
        let c =
          And
            ( Exists (r, One_of [ "o1"; "o2" ]),
              Data_exists ("u", Datatype.Int_type) )
        in
        Alcotest.(check (list string)) "roles" [ "r" ] (role_names c);
        Alcotest.(check (list string)) "data roles" [ "u" ] (data_role_names c);
        Alcotest.(check (list string))
          "individuals" [ "o1"; "o2" ]
          (individual_names c));
    Alcotest.test_case "kb signature" `Quick (fun () ->
        let kb =
          Axiom.make
            ~tbox:
              [ Axiom.Concept_sub (a, Exists (r, b)); Axiom.Transitive "t" ]
            ~abox:
              [ Axiom.Instance_of ("x", a);
                Axiom.Role_assertion ("x", Role.name "s", "y") ]
        in
        let s = Axiom.signature kb in
        Alcotest.(check (slist string String.compare))
          "concepts" [ "A"; "B" ] s.Axiom.concepts;
        Alcotest.(check (slist string String.compare))
          "roles" [ "r"; "s"; "t" ] s.Axiom.roles;
        Alcotest.(check (slist string String.compare))
          "individuals" [ "x"; "y" ] s.Axiom.individuals)
  ]

let kb4_tests =
  [ Alcotest.test_case "of_classical maps to internal by default" `Quick
      (fun () ->
        let kb = Axiom.make ~tbox:[ Axiom.Concept_sub (a, b) ] ~abox:[] in
        let kb4 = Kb4.of_classical kb in
        match kb4.Kb4.tbox with
        | [ Kb4.Concept_inclusion (Kb4.Internal, x, y) ] ->
            Alcotest.check concept "lhs" a x;
            Alcotest.check concept "rhs" b y
        | _ -> Alcotest.fail "unexpected shape");
    Alcotest.test_case "size counts tbox and abox" `Quick (fun () ->
        let kb4 =
          Kb4.make
            ~tbox:[ Kb4.Concept_inclusion (Kb4.Material, a, b) ]
            ~abox:[ Axiom.Instance_of ("x", a) ]
        in
        Alcotest.(check int) "size" 2 (Kb4.size kb4));
    Alcotest.test_case "inclusion symbols" `Quick (fun () ->
        Alcotest.(check string) "material" "|->" (Kb4.inclusion_symbol Kb4.Material);
        Alcotest.(check string) "internal" "<" (Kb4.inclusion_symbol Kb4.Internal);
        Alcotest.(check string) "strong" "->" (Kb4.inclusion_symbol Kb4.Strong))
  ]

let mangle_tests =
  [ Alcotest.test_case "mangle round trips" `Quick (fun () ->
        (match Mangle.atom_origin (Mangle.pos_atom "A") with
        | Mangle.Pos "A" -> ()
        | _ -> Alcotest.fail "pos");
        (match Mangle.atom_origin (Mangle.neg_atom "A") with
        | Mangle.Neg "A" -> ()
        | _ -> Alcotest.fail "neg");
        (match Mangle.role_origin (Mangle.eq_role "r") with
        | Mangle.Eq "r" -> ()
        | _ -> Alcotest.fail "eq");
        match Mangle.atom_origin "Plain" with
        | Mangle.Plain "Plain" -> ()
        | _ -> Alcotest.fail "plain");
    Alcotest.test_case "is_mangled" `Quick (fun () ->
        Alcotest.(check bool) "A+" true (Mangle.is_mangled (Mangle.pos_atom "A"));
        Alcotest.(check bool) "A" false (Mangle.is_mangled "A"))
  ]

(* [Concept.to_string] renders atomic concepts directly and everything
   else through [pp]: both spellings must agree byte for byte. *)
let gen_concept =
  let open QCheck2.Gen in
  let gen_name =
    oneofl [ "A"; "B"; "Doctor"; Mangle.pos_atom "A"; Mangle.neg_atom "B"; "horn:3" ]
  in
  let gen_role =
    map2
      (fun r inv -> if inv then Role.inv (Role.name r) else Role.name r)
      (oneofl [ "r"; Mangle.plus_role "s" ])
      bool
  in
  let gen_data =
    oneofl
      [ Datatype.Int_type;
        Datatype.Int_range (Some 1, None);
        Datatype.One_of [ Datatype.Str "x"; Datatype.Bool true ];
        Datatype.Complement Datatype.String_type ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         let leaves =
           [ return Top;
             return Bottom;
             map (fun a -> Atom a) gen_name;
             map (fun os -> One_of os) (list_size (int_range 1 2) (oneofl [ "a"; "b" ]));
             map2 (fun k r -> At_least (k, r)) (int_bound 3) gen_role;
             map2 (fun k r -> At_most (k, r)) (int_bound 3) gen_role;
             map2 (fun u d -> Data_exists (u, d)) (oneofl [ "age"; "name" ]) gen_data;
             map2 (fun u d -> Data_forall (u, d)) (oneofl [ "age" ]) gen_data;
             map2 (fun k u -> Data_at_least (k, u)) (int_bound 2) (oneofl [ "age" ]);
             map2 (fun k u -> Data_at_most (k, u)) (int_bound 2) (oneofl [ "age" ]) ]
         in
         if n = 0 then oneof leaves
         else
           oneof
             (leaves
             @ [ map (fun c -> Not c) (self (n - 1));
                 map2 (fun x y -> And (x, y)) (self (n - 1)) (self (n - 1));
                 map2 (fun x y -> Or (x, y)) (self (n - 1)) (self (n - 1));
                 map2 (fun r c -> Exists (r, c)) gen_role (self (n - 1));
                 map2 (fun r c -> Forall (r, c)) gen_role (self (n - 1)) ]))

let printing_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~name:"to_string = asprintf pp"
         ~print:(Format.asprintf "%a" Concept.pp) gen_concept (fun c ->
           String.equal (Concept.to_string c) (Format.asprintf "%a" Concept.pp c)))
  ]

let () =
  Alcotest.run "syntax"
    [ ("roles", role_tests);
      ("nnf", nnf_tests);
      ("smart-constructors", smart_constructor_tests);
      ("measures", measure_tests);
      ("signatures", signature_tests);
      ("kb4", kb4_tests);
      ("mangle", mangle_tests);
      ("printing", printing_tests) ]
