(* Property-based tests (qcheck): NNF laws, Proposition 4 as a law of the
   four-valued semantics, Lemma 5 (decomposition) and the per-axiom version
   of Theorem 6 on random interpretations, parser round trips, and
   differential testing of the tableau against model enumeration. *)

open QCheck2

(* ------------------------------------------------------------------ *)
(* Generators *)

let concept_names = [ "A"; "B"; "C" ]
let role_names = [ "r"; "s" ]
let individual_names = [ "x"; "y" ]

let gen_atom = Gen.map (fun a -> Concept.Atom a) (Gen.oneofl concept_names)
let gen_role =
  Gen.map2
    (fun name inv -> if inv then Role.Inv name else Role.Name name)
    (Gen.oneofl role_names) Gen.bool

(* Random concept with bounded depth.  [nominals] controls whether One_of
   may appear (the transformation has a documented gap for negated
   nominals, see Transform). *)
let gen_concept ?(nominals = true) () =
  let open Gen in
  sized_size (int_bound 3) @@ fix (fun self n ->
      if n = 0 then
        oneof
          ([ gen_atom;
             map (fun a -> Concept.Not a) gen_atom;
             return Concept.Top;
             return Concept.Bottom ]
          @
          if nominals then
            [ map (fun os -> Concept.One_of os)
                (map (fun o -> [ o ]) (oneofl individual_names)) ]
          else [])
      else
        oneof
          [ gen_atom;
            map2 (fun a b -> Concept.And (a, b)) (self (n - 1)) (self (n - 1));
            map2 (fun a b -> Concept.Or (a, b)) (self (n - 1)) (self (n - 1));
            map (fun a -> Concept.Not a) (self (n - 1));
            map2 (fun r c -> Concept.Exists (r, c)) gen_role (self (n - 1));
            map2 (fun r c -> Concept.Forall (r, c)) gen_role (self (n - 1));
            map2 (fun k r -> Concept.At_least (k, r)) (int_bound 2) gen_role;
            map2 (fun k r -> Concept.At_most (k, r)) (int_bound 2) gen_role ])

let print_concept = Concept.to_string

(* Positive-NNF-ish concepts for the decomposition property: negation is
   applied freely but One_of never occurs under Not.  We reuse the general
   generator without nominals (nominals appear in a dedicated positive-only
   test). *)
let gen_concept_no_nominal = gen_concept ~nominals:false ()

(* Random two-valued interpretation over domain {0..size-1}. *)
let gen_interp2 size =
  let open Gen in
  let elements = List.init size Fun.id in
  let pairs = List.concat_map (fun x -> List.map (fun y -> (x, y)) elements) elements in
  let subset xs = map (fun keep -> List.filteri (fun i _ -> List.nth keep i) xs)
      (list_repeat (List.length xs) bool)
  in
  let* concepts =
    flatten_l
      (List.map (fun a -> map (fun s -> (a, s)) (subset elements)) concept_names)
  in
  let* roles =
    flatten_l (List.map (fun r -> map (fun s -> (r, s)) (subset pairs)) role_names)
  in
  return
    (Interp.make
       ~domain:(Interp.ESet.of_list elements)
       ~concepts ~roles
       ~individuals:(List.mapi (fun i a -> (a, i mod size)) individual_names)
       ())

(* Random four-valued interpretation. *)
let gen_interp4 size =
  let open Gen in
  let elements = List.init size Fun.id in
  let pairs = List.concat_map (fun x -> List.map (fun y -> (x, y)) elements) elements in
  let subset xs = map (fun keep -> List.filteri (fun i _ -> List.nth keep i) xs)
      (list_repeat (List.length xs) bool)
  in
  let* concepts =
    flatten_l
      (List.map
         (fun a -> map2 (fun p n -> (a, p, n)) (subset elements) (subset elements))
         concept_names)
  in
  let* roles =
    flatten_l
      (List.map
         (fun r -> map2 (fun p n -> (r, p, n)) (subset pairs) (subset pairs))
         role_names)
  in
  return
    (Interp4.make
       ~domain:(Interp.ESet.of_list elements)
       ~concepts ~roles
       ~individuals:(List.mapi (fun i a -> (a, i mod size)) individual_names)
       ())

let cext_equal (a : Interp4.cext) (b : Interp4.cext) =
  Interp.ESet.equal a.Interp4.cpos b.Interp4.cpos
  && Interp.ESet.equal a.Interp4.cneg b.Interp4.cneg

(* ------------------------------------------------------------------ *)
(* NNF properties *)

let nnf_tests =
  [ Test.make ~count:500 ~name:"nnf produces NNF" ~print:print_concept
      (gen_concept ()) (fun c -> Concept.is_nnf (Concept.nnf c));
    Test.make ~count:500 ~name:"nnf is idempotent" ~print:print_concept
      (gen_concept ()) (fun c ->
        Concept.equal (Concept.nnf c) (Concept.nnf (Concept.nnf c)));
    Test.make ~count:300 ~name:"nnf preserves two-valued semantics"
      ~print:(fun (c, _) -> print_concept c)
      Gen.(pair (gen_concept ()) (gen_interp2 3))
      (fun (c, i) ->
        Interp.ESet.equal (Interp.eval i c) (Interp.eval i (Concept.nnf c)));
    Test.make ~count:300
      ~name:"nnf preserves four-valued semantics (Proposition 4 as a law)"
      ~print:(fun (c, _) -> print_concept c)
      Gen.(pair (gen_concept ()) (gen_interp4 3))
      (fun (c, i) -> cext_equal (Interp4.eval i c) (Interp4.eval i (Concept.nnf c)));
    Test.make ~count:300 ~name:"double negation four-valued"
      ~print:(fun (c, _) -> print_concept c)
      Gen.(pair (gen_concept ()) (gen_interp4 2))
      (fun (c, i) ->
        cext_equal (Interp4.eval i (Concept.Not (Concept.Not c))) (Interp4.eval i c));
    Test.make ~count:500 ~name:"size of nnf is linear (within 2x + 1)"
      ~print:print_concept (gen_concept ()) (fun c ->
        Concept.size (Concept.nnf c) <= (2 * Concept.size c) + 1)
  ]

(* ------------------------------------------------------------------ *)
(* The classical corner: embedding a two-valued interpretation yields
   classical truth values agreeing with Table 1 evaluation. *)

let classical_corner_tests =
  [ Test.make ~count:300
      ~name:"four-valued semantics extends the classical (§3.2)"
      ~print:(fun (c, _) -> print_concept c)
      Gen.(pair gen_concept_no_nominal (gen_interp2 3))
      (fun (c, i) ->
        let i4 = Interp4.of_classical i in
        let two = Interp.eval i c in
        let four = Interp4.eval i4 c in
        Interp.ESet.equal two four.Interp4.cpos
        && Interp.ESet.equal
             (Interp.ESet.diff i.Interp.domain two)
             four.Interp4.cneg);
    (* Nominals: Table 2 leaves the negative part of {o…} unconstrained and
       our checker uses the canonical N = ∅, so only the positive
       projection is classical. *)
    Test.make ~count:300
      ~name:"classical corner, positive projection (with nominals)"
      ~print:(fun (c, _) -> print_concept c)
      Gen.(pair (gen_concept ()) (gen_interp2 3))
      (fun (c, i) ->
        let i4 = Interp4.of_classical i in
        (* compare told-true only, and only for negation-free concepts *)
        let rec negation_free (c : Concept.t) =
          match c with
          | Not _ -> false
          | And (a, b) | Or (a, b) -> negation_free a && negation_free b
          | Exists (_, d) | Forall (_, d) -> negation_free d
          | _ -> true
        in
        (not (negation_free c))
        || Interp.ESet.equal (Interp.eval i c) (Interp4.eval i4 c).Interp4.cpos)
  ]

(* ------------------------------------------------------------------ *)
(* Lemma 5: decomposition of the four-valued semantics. *)

let decomposition_tests =
  [ Test.make ~count:500
      ~name:"Lemma 5: proj+/proj- = transformed evaluation (no nominals)"
      ~print:(fun (c, _) -> print_concept c)
      Gen.(pair gen_concept_no_nominal (gen_interp4 3))
      (fun (c, i) ->
        let ibar = Induced.classical_of_four i in
        let e = Interp4.eval i c in
        Interp.ESet.equal e.Interp4.cpos
          (Interp.eval ibar (Transform.concept_pos c))
        && Interp.ESet.equal e.Interp4.cneg
             (Interp.eval ibar (Transform.concept_neg c)));
    Test.make ~count:300
      ~name:"Lemma 5 positive part also holds with positive nominals"
      ~print:(fun (c, _) -> print_concept c)
      Gen.(
        pair
          (map2
             (fun os c -> Concept.And (Concept.One_of os, c))
             (map (fun o -> [ o ]) (oneofl individual_names))
             gen_concept_no_nominal)
          (gen_interp4 2))
      (fun (c, i) ->
        let ibar = Induced.classical_of_four i in
        Interp.ESet.equal
          (Interp4.eval i c).Interp4.cpos
          (Interp.eval ibar (Transform.concept_pos c)))
  ]

(* ------------------------------------------------------------------ *)
(* Theorem 6, per axiom: I ⊨₄ ax  iff  Ī ⊨ transform(ax). *)

let gen_inclusion = Gen.oneofl [ Kb4.Material; Kb4.Internal; Kb4.Strong ]

let gen_tbox4_axiom =
  let open Gen in
  oneof
    [ map3
        (fun k c d -> Kb4.Concept_inclusion (k, c, d))
        gen_inclusion gen_concept_no_nominal gen_concept_no_nominal;
      map3 (fun k r s -> Kb4.Role_inclusion (k, r, s)) gen_inclusion gen_role gen_role ]

let gen_abox_axiom =
  let open Gen in
  oneof
    [ map2
        (fun a c -> Axiom.Instance_of (a, c))
        (oneofl individual_names) gen_concept_no_nominal;
      map3
        (fun a r b -> Axiom.Role_assertion (a, r, b))
        (oneofl individual_names) gen_role (oneofl individual_names) ]

let theorem6_tests =
  [ Test.make ~count:500 ~name:"Theorem 6 per TBox axiom"
      ~print:(fun (ax, _) -> Format.asprintf "%a" Kb4.pp_tbox_axiom ax)
      Gen.(pair gen_tbox4_axiom (gen_interp4 2))
      (fun (ax, i) ->
        let ibar = Induced.classical_of_four i in
        let holds4 = Interp4.satisfies_tbox i ax in
        let holds2 =
          List.for_all (Interp.satisfies_tbox ibar) (Transform.tbox_axiom ax)
        in
        Bool.equal holds4 holds2);
    Test.make ~count:500 ~name:"Theorem 6 per ABox axiom"
      ~print:(fun (ax, _) -> Format.asprintf "%a" Axiom.pp_abox_axiom ax)
      Gen.(pair gen_abox_axiom (gen_interp4 2))
      (fun (ax, i) ->
        let ibar = Induced.classical_of_four i in
        Bool.equal
          (Interp4.satisfies_abox i ax)
          (Interp.satisfies_abox ibar (Transform.abox_axiom ax)));
    Test.make ~count:200 ~name:"induced interpretations are mutually inverse"
      (gen_interp4 3)
      (fun i ->
        let signature =
          { Axiom.concepts = concept_names;
            roles = role_names;
            data_roles = [];
            individuals = individual_names }
        in
        let back =
          Induced.four_of_classical ~signature (Induced.classical_of_four i)
        in
        List.for_all
          (fun a ->
            cext_equal (Interp4.concept_ext i a) (Interp4.concept_ext back a))
          concept_names
        && List.for_all
             (fun r ->
               let e = Interp4.role_ext i (Role.Name r)
               and e' = Interp4.role_ext back (Role.Name r) in
               Interp.PSet.equal e.Interp4.rpos e'.Interp4.rpos
               && Interp.PSet.equal e.Interp4.rneg e'.Interp4.rneg)
             role_names)
  ]

(* ------------------------------------------------------------------ *)
(* Parser round trip *)

let parser_tests =
  [ Test.make ~count:500 ~name:"concept print/parse round trip"
      ~print:print_concept (gen_concept ()) (fun c ->
        match Surface.parse_concept (Concept.to_string c) with
        | Ok c' -> Concept.equal c c'
        | Error _ -> false);
    Test.make ~count:100 ~name:"kb4 print/parse round trip"
      ~print:(fun axs ->
        Surface.kb4_to_string (Kb4.make ~tbox:axs ~abox:[]))
      Gen.(list_size (int_range 1 8) gen_tbox4_axiom)
      (fun axs ->
        let kb = Kb4.make ~tbox:axs ~abox:[] in
        match Surface.parse_kb4 (Surface.kb4_to_string kb) with
        | Ok kb' ->
            List.length kb.Kb4.tbox = List.length kb'.Kb4.tbox
            && List.for_all2
                 (fun a b -> Kb4.compare_tbox_axiom a b = 0)
                 kb.Kb4.tbox kb'.Kb4.tbox
        | Error _ -> false)
  ]

(* ------------------------------------------------------------------ *)
(* Differential testing of the tableau *)

(* Propositional KBs (no roles): the tableau and enumeration over the
   individuals' domain must agree exactly. *)
let gen_prop_concept =
  let open Gen in
  sized_size (int_bound 3) @@ fix (fun self n ->
      if n = 0 then oneof [ gen_atom; map (fun a -> Concept.Not a) gen_atom ]
      else
        oneof
          [ gen_atom;
            map2 (fun a b -> Concept.And (a, b)) (self (n - 1)) (self (n - 1));
            map2 (fun a b -> Concept.Or (a, b)) (self (n - 1)) (self (n - 1));
            map (fun a -> Concept.Not a) (self (n - 1)) ])

let gen_prop_kb =
  let open Gen in
  let* n_tbox = int_bound 2 in
  let* tbox =
    list_repeat n_tbox
      (map2 (fun c d -> Axiom.Concept_sub (c, d)) gen_prop_concept gen_prop_concept)
  in
  let* n_abox = int_range 1 4 in
  let* abox =
    list_repeat n_abox
      (map2
         (fun a c -> Axiom.Instance_of (a, c))
         (oneofl individual_names) gen_prop_concept)
  in
  return (Axiom.make ~tbox ~abox)

let gen_shallow_kb =
  let open Gen in
  let* n_abox = int_range 1 5 in
  let* abox =
    list_repeat n_abox
      (oneof
         [ map2
             (fun a c -> Axiom.Instance_of (a, c))
             (oneofl individual_names)
             (gen_concept ~nominals:false ());
           map3
             (fun a r b -> Axiom.Role_assertion (a, r, b))
             (oneofl individual_names) gen_role (oneofl individual_names) ])
  in
  return (Axiom.make ~tbox:[] ~abox)

let print_kb = Surface.kb_to_string

(* Bounded model search: scan at most [budget] interpretations.  The
   enumeration spaces blow up fast, so the two-sided differential test is
   restricted to propositional KBs (tiny spaces); elsewhere we use the
   one-sided "a found model implies tableau-sat" direction with a budget. *)
let find_model2_bounded ~budget ~extra kb =
  let signature = Axiom.signature kb in
  Seq.exists
    (fun i -> Interp.is_model i kb)
    (Seq.take budget (Enum.interps2 ~signature ~extra ()))

let find_model4_bounded ~budget kb =
  let signature = Kb4.signature kb in
  Seq.exists
    (fun i -> Interp4.is_model i kb)
    (Seq.take budget (Enum.interps4 ~signature ()))

(* ------------------------------------------------------------------ *)
(* Budgeted properties.  Chronological backtracking is worst-case
   exponential, so a random KB can keep the tableau busy for minutes.
   A property that runs it on one does so under [max_nodes] and
   [max_branches] and skips a case whose run blows them.  Its test
   counts the skipped cases, prints the count when the suite ends, and
   fails when more than [max_skip_share] of its cases were skipped: a
   budget that skips most cases would test nothing.  Each test's share
   is about twice the worst it skipped over 64 seeds (1-60, 42, 1000,
   99999 and 367319231): the skip count of a seed has a long tail. *)

let max_nodes = 1_000
let max_branches = 1_500

let with_budget f =
  match f () with v -> Some v | exception Tableau.Resource_limit _ -> None

(* A case made of several budgeted checks fails when one fails, and
   else is skipped when one was. *)
let all_checks checks =
  if List.mem (Some false) checks then Some false
  else if List.mem None checks then None
  else Some true

let skip_log = ref []

let () =
  at_exit (fun () ->
      if !skip_log <> [] then print_newline ();
      List.iter
        (fun (name, skipped, count) ->
          Printf.printf "%s: %d of %d cases skipped over the tableau budget\n"
            name skipped count)
        (List.rev !skip_log))

(* [prop] answers [None] for a case it skipped. *)
let budgeted_test ~count ~max_skip_share ~name ~print gen prop =
  let skipped = ref 0 in
  let test =
    Test.make ~count ~name ~print gen (fun x ->
        match prop x with
        | Some ok -> ok
        | None ->
            incr skipped;
            true)
  in
  let name, speed, run = QCheck_alcotest.to_alcotest test in
  ( name,
    speed,
    fun () ->
      Fun.protect run ~finally:(fun () ->
          skip_log := (name, !skipped, count) :: !skip_log);
      if float_of_int !skipped > max_skip_share *. float_of_int count then
        Alcotest.failf
          "%d of %d cases skipped over the tableau budget (at most %.0f%% \
           may be)"
          !skipped count (100.0 *. max_skip_share) )

let qcheck = QCheck_alcotest.to_alcotest

let differential_tests =
  [ qcheck @@ Test.make ~count:300
      ~name:"propositional KBs: tableau agrees with enumeration exactly"
      ~print:print_kb gen_prop_kb
      (fun kb ->
        Bool.equal (Tableau.kb_satisfiable kb) (Enum.exists_model2 kb));
    qcheck @@ Test.make ~count:100
      ~name:"shallow KBs: an enumerated model implies tableau-sat"
      ~print:print_kb gen_shallow_kb
      (fun kb ->
        (* one-sided: finite enumeration under-approximates satisfiability *)
        if find_model2_bounded ~budget:30_000 ~extra:0 kb then
          Tableau.kb_satisfiable kb
        else true);
    (* worst measured: 3 of 100 *)
    budgeted_test ~count:100 ~max_skip_share:0.1
      ~name:"4-valued: enumerated 4-model implies transformed KB sat"
      ~print:(fun kb -> Surface.kb4_to_string kb)
      Gen.(
        let* n = int_range 1 4 in
        let* abox = list_repeat n gen_abox_axiom in
        let* n_tbox = int_bound 2 in
        let* tbox = list_repeat n_tbox gen_tbox4_axiom in
        return (Kb4.make ~tbox ~abox))
      (fun kb ->
        if find_model4_bounded ~budget:30_000 kb then
          with_budget (fun () ->
              Tableau.kb_satisfiable ~max_nodes ~max_branches
                (Transform.kb kb))
        else Some true);
    (* Model extraction: [kb_model] self-verifies, so [Some] is always a
       real model; on fragments with the finite-tree/finite-model property
       extraction must succeed whenever the KB is satisfiable. *)
    qcheck @@ Test.make ~count:200
      ~name:"propositional KBs: satisfiable implies extractable model"
      ~print:print_kb gen_prop_kb
      (fun kb ->
        if Tableau.kb_satisfiable kb then Tableau.kb_model kb <> None else true);
    qcheck @@ Test.make ~count:100
      ~name:"ABox-only KBs: satisfiable implies extractable model"
      ~print:print_kb gen_shallow_kb
      (fun kb ->
        if Tableau.kb_satisfiable kb then Tableau.kb_model kb <> None else true)
  ]

(* ------------------------------------------------------------------ *)
(* Baseline invariants *)

let baseline_tests =
  [ Test.make ~count:50 ~name:"stratified repair is always consistent"
      ~print:print_kb gen_prop_kb
      (fun kb -> Tableau.kb_satisfiable (Baselines.stratified_repair kb));
    Test.make ~count:50 ~name:"selection subset is consistent and within KB"
      ~print:print_kb gen_prop_kb
      (fun kb ->
        let sub = Baselines.selection_subset kb (Concept.Atom "A") "x" in
        Tableau.kb_satisfiable sub && Axiom.size sub <= Axiom.size kb)
  ]

(* ------------------------------------------------------------------ *)
(* Native four-valued tableau vs the transformation pipeline: both decide
   the same relation (Theorem 6), via entirely different code paths. *)

let gen_kb4_for_native =
  let open Gen in
  let* n_tbox = int_bound 3 in
  let* tbox =
    list_repeat n_tbox
      (map3
         (fun k c d -> Kb4.Concept_inclusion (k, c, d))
         gen_inclusion gen_concept_no_nominal gen_concept_no_nominal)
  in
  let* n_abox = int_range 1 4 in
  let* abox = list_repeat n_abox gen_abox_axiom in
  return (Kb4.make ~tbox ~abox)

(* The two sides of a budgeted comparison: [None] when either side
   blew the budget. *)
let agree equal p n =
  match (with_budget p, with_budget n) with
  | Some p, Some n -> Some (equal p n)
  | None, _ | _, None -> None

let native_tests =
  let config = { Oracle.default_config with max_nodes; max_branches } in
  [ (* worst measured: 14 of 80 *)
    budgeted_test ~count:80 ~max_skip_share:0.3
      ~name:"native 4-valued tableau agrees with the transformation (sat)"
      ~print:(fun kb -> Surface.kb4_to_string kb)
      gen_kb4_for_native
      (fun kb ->
        agree Bool.equal
          (fun () -> Para.satisfiable (Para.create ~config kb))
          (fun () ->
            Tableau4.satisfiable (Tableau4.create ~max_nodes ~max_branches kb)));
    (* a case is six checks, any of which may skip it; worst measured:
       10 of 30 *)
    budgeted_test ~count:30 ~max_skip_share:0.5
      ~name:"native 4-valued tableau agrees on instance truth values"
      ~print:(fun kb -> Surface.kb4_to_string kb)
      gen_kb4_for_native
      (fun kb ->
        let para = Para.create ~config kb in
        let native = Tableau4.create ~max_nodes ~max_branches kb in
        all_checks
          (List.concat_map
             (fun a ->
               List.map
                 (fun cname ->
                   let c = Concept.Atom cname in
                   agree Truth.equal
                     (fun () -> Para.instance_truth para a c)
                     (fun () -> Tableau4.instance_truth native a c))
                 concept_names)
             individual_names))
  ]

(* ------------------------------------------------------------------ *)
(* Propositional four-valued logic: tableau vs enumeration *)

let gen_formula =
  let open Gen in
  let gen_patom = map Prop4.atom (oneofl [ "p"; "q"; "r" ]) in
  sized_size (int_bound 4) @@ fix (fun self n ->
      if n = 0 then gen_patom
      else
        oneof
          [ gen_patom;
            map Prop4.neg (self (n - 1));
            map2 (fun a b -> Prop4.And (a, b)) (self (n - 1)) (self (n - 1));
            map2 (fun a b -> Prop4.Or (a, b)) (self (n - 1)) (self (n - 1));
            map2 (fun a b -> Prop4.Material (a, b)) (self (n - 1)) (self (n - 1));
            map2 (fun a b -> Prop4.Internal (a, b)) (self (n - 1)) (self (n - 1));
            map2 (fun a b -> Prop4.Strong (a, b)) (self (n - 1)) (self (n - 1));
            map2 (fun a b -> Prop4.Equiv (a, b)) (self (n - 1)) (self (n - 1)) ])

let prop4_tests =
  [ Test.make ~count:500
      ~name:"signed tableau agrees with valuation enumeration"
      ~print:(fun (gamma, phi) ->
        Format.asprintf "%a |- %a"
          (Format.pp_print_list Prop4.pp)
          gamma Prop4.pp phi)
      Gen.(pair (list_size (int_bound 3) gen_formula) gen_formula)
      (fun (gamma, phi) ->
        Bool.equal (Prop4.entails gamma phi) (Prop4_tableau.entails gamma phi));
    Test.make ~count:300 ~name:"four-valued entailment implies classical"
      ~print:(fun (gamma, phi) ->
        Format.asprintf "%a |- %a"
          (Format.pp_print_list Prop4.pp)
          gamma Prop4.pp phi)
      Gen.(pair (list_size (int_bound 3) gen_formula) gen_formula)
      (fun (gamma, phi) ->
        (* ⊨⁴ is strictly weaker than classical entailment *)
        (not (Prop4.entails gamma phi)) || Prop4.entails_classically gamma phi)
  ]

(* ------------------------------------------------------------------ *)
(* Datatype solver properties *)

let gen_datatype =
  let open Gen in
  sized_size (int_bound 2) @@ fix (fun self n ->
      let base =
        oneof
          [ return Datatype.Int_type;
            return Datatype.String_type;
            return Datatype.Bool_type;
            return Datatype.Top_data;
            return Datatype.Bottom_data;
            map2
              (fun lo len -> Datatype.Int_range (Some lo, Some (lo + len)))
              (int_range (-20) 20) (int_bound 20);
            map
              (fun vs -> Datatype.One_of vs)
              (list_size (int_range 1 3)
                 (oneof
                    [ map (fun n -> Datatype.Int n) (int_range (-5) 5);
                      map (fun b -> Datatype.Bool b) bool;
                      oneofl [ Datatype.Str "a"; Datatype.Str "b" ] ])) ]
      in
      if n = 0 then base
      else oneof [ base; map (fun d -> Datatype.Complement d) (self (n - 1)) ])

let gen_value =
  Gen.oneof
    [ Gen.map (fun n -> Datatype.Int n) (Gen.int_range (-25) 25);
      Gen.map (fun b -> Datatype.Bool b) Gen.bool;
      Gen.oneofl [ Datatype.Str "a"; Datatype.Str "b"; Datatype.Str "zz" ] ]

let datatype_tests =
  [ Test.make ~count:500 ~name:"complement flips membership"
      ~print:(fun (v, d) ->
        Format.asprintf "%a in %a" Datatype.pp_value v Datatype.pp d)
      Gen.(pair gen_value gen_datatype)
      (fun (v, d) ->
        Bool.equal (Datatype.member v (Datatype.Complement d))
          (not (Datatype.member v d)));
    Test.make ~count:300 ~name:"witnesses are members"
      ~print:(fun ds -> String.concat "; " (List.map Datatype.to_string ds))
      Gen.(list_size (int_range 1 3) gen_datatype)
      (fun ds ->
        List.for_all
          (fun w -> List.for_all (Datatype.member w) ds)
          (Datatype.witnesses 4 ds));
    Test.make ~count:300 ~name:"satisfiable iff a witness exists"
      ~print:(fun ds -> String.concat "; " (List.map Datatype.to_string ds))
      Gen.(list_size (int_range 1 3) gen_datatype)
      (fun ds ->
        Bool.equal (Datatype.satisfiable ds) (Datatype.witnesses 1 ds <> []));
    Test.make ~count:300 ~name:"cardinality is monotone"
      ~print:(fun ds -> String.concat "; " (List.map Datatype.to_string ds))
      Gen.(list_size (int_range 1 3) gen_datatype)
      (fun ds ->
        let ok_at n = Datatype.cardinal_at_least n ds in
        (not (ok_at 3)) || (ok_at 2 && ok_at 1))
  ]

let () =
  let to_alcotest = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [ ("nnf", to_alcotest nnf_tests);
      ("classical-corner", to_alcotest classical_corner_tests);
      ("decomposition", to_alcotest decomposition_tests);
      ("theorem6", to_alcotest theorem6_tests);
      ("parser", to_alcotest parser_tests);
      ("differential", differential_tests);
      ("native4", native_tests);
      ("prop4", to_alcotest prop4_tests);
      ("baselines", to_alcotest baseline_tests);
      ("datatype", to_alcotest datatype_tests) ]
