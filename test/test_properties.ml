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
(* Absorption on K̄.  The transformation of a four-valued KB gives the
   tableau each shape its preprocessing absorbs: a material inclusion
   [C ↦ D] becomes [¬C⁻ ⊑ D⁺], unfolded on [¬A⁻] when no axiom unfolds
   on [A⁻] (a strong inclusion into [C], or one with [~C] on the left,
   gives [A⁻] such a rule); internal and strong inclusions unfold on a
   positive atom.  Literals and binary ∧/∨ of literals over three atoms
   keep K̄ propositional, so enumeration over the named individuals
   decides it exactly.  The count is sized so that absorbing a name
   both ways, which is unsound, fails the property at every seed it was
   tried with (CHANGES.md lists them). *)

let gen_literal =
  Gen.oneof [ gen_atom; Gen.map (fun a -> Concept.Not a) gen_atom ]

let gen_small_concept =
  let open Gen in
  oneof
    [ gen_literal;
      map2 (fun a b -> Concept.And (a, b)) gen_literal gen_literal;
      map2 (fun a b -> Concept.Or (a, b)) gen_literal gen_literal ]

let gen_absorption_kb =
  let open Gen in
  let* n_tbox = int_range 1 4 in
  let* tbox =
    list_repeat n_tbox
      (map3
         (fun k c d -> Kb4.Concept_inclusion (k, c, d))
         gen_inclusion gen_small_concept gen_small_concept)
  in
  let* n_abox = int_range 1 3 in
  let* abox =
    list_repeat n_abox
      (map2
         (fun a c -> Axiom.Instance_of (a, c))
         (oneofl individual_names) gen_literal)
  in
  let* query =
    option
      (map3
         (fun q c a -> q c a)
         (oneofl [ Transform.instance_query; Transform.negative_instance_query ])
         gen_small_concept (oneofl individual_names))
  in
  let kb = Transform.kb (Kb4.make ~tbox ~abox) in
  return { kb with Axiom.abox = kb.Axiom.abox @ Option.to_list query }

let absorption_tests =
  [ qcheck @@ Test.make ~count:300
      ~name:"K̄ of literal inclusions: tableau agrees with enumeration"
      ~print:print_kb gen_absorption_kb
      (fun kb ->
        let sat = Tableau.kb_satisfiable kb in
        Bool.equal sat (Enum.exists_model2 kb)
        && ((not sat) || Tableau.kb_model kb <> None)) ]

(* ------------------------------------------------------------------ *)
(* The saturated base.  A reasoner saturates its told ABox once and
   starts every run from that base, extending it on additions and
   dropping it on retractions.  One reasoner is put through queries
   with ABox additions and retractions between them, and each query is
   compared with a fresh [kb_satisfiable] over the merged KB, which
   saturates everything in one pass: the verdicts must be equal, and
   when the told ABox is satisfiable the fresh provenance must be a
   subset of the reasoner's.  The count is sized so that a base carried
   across a retraction, and a base whose own clash check is skipped,
   each fail at every seed they were tried with (CHANGES.md lists
   them). *)

type base_op =
  | Query of Axiom.abox_axiom list
  | Add of Axiom.abox_axiom
  | Retract of int  (* the told assertion at this index, modulo *)

let gen_base_concept =
  let open Gen in
  let r = Role.name "r" in
  frequency
    [ (4, gen_small_concept);
      (1, map (fun c -> Concept.Exists (r, c)) gen_literal);
      (1, map (fun c -> Concept.Forall (r, c)) gen_literal);
      (1, return (Concept.At_most (1, r))) ]

let base_individuals = [ "x"; "y"; "z" ]

let gen_told =
  let open Gen in
  let ind = oneofl base_individuals in
  frequency
    [ (6, map2 (fun a c -> Axiom.Instance_of (a, c)) ind gen_base_concept);
      (2, map2 (fun a b -> Axiom.Role_assertion (a, Role.name "r", b)) ind ind);
      (1, map2 (fun a b -> Axiom.Same (a, b)) ind ind);
      (1, map2 (fun a b -> Axiom.Different (a, b)) ind ind) ]

let gen_base_case =
  let open Gen in
  let* n_tbox = int_bound 3 in
  let* tbox =
    list_repeat n_tbox
      (map2 (fun c d -> Axiom.Concept_sub (c, d)) gen_small_concept
         gen_base_concept)
  in
  let* n_abox = int_range 1 4 in
  let* abox = list_repeat n_abox gen_told in
  let* n_ops = int_range 2 7 in
  let* ops =
    list_repeat n_ops
      (frequency
         [ ( 3,
             map2
               (fun a c -> Query [ Axiom.Instance_of (a, c) ])
               (oneofl ("q:fresh" :: base_individuals))
               gen_base_concept );
           (2, map (fun ax -> Add ax) gen_told);
           (2, map (fun i -> Retract i) nat) ])
  in
  return (Axiom.make ~tbox ~abox, ops)

let print_base_case (kb, ops) =
  let ax a = Format.asprintf "%a" Axiom.pp_abox_axiom a in
  print_kb kb ^ "\n"
  ^ String.concat "\n"
      (List.map
         (function
           | Query q -> "? " ^ String.concat ", " (List.map ax q)
           | Add a -> "+ " ^ ax a
           | Retract i -> Printf.sprintf "- #%d" i)
         ops)

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

(* [None] when a run blew the budget *)
let base_case_agrees (kb, ops) =
  let r = Reasoner.create ~max_nodes ~max_branches kb in
  let step ok op =
    match (ok, op) with
    | Some false, _ | None, _ -> ok
    | Some true, Add a ->
        Reasoner.apply_delta r ~add_abox:[ a ] ~retract_abox:[] ~add_tbox:[];
        ok
    | Some true, Retract i ->
        let abox = (Reasoner.kb r).Axiom.abox in
        if abox <> [] then
          Reasoner.apply_delta r ~add_abox:[]
            ~retract_abox:[ List.nth abox (i mod List.length abox) ]
            ~add_tbox:[];
        ok
    | Some true, Query q ->
        with_budget (fun () ->
            let told = Reasoner.kb r in
            let memo = Tableau.fresh_prov () and fresh = Tableau.fresh_prov () in
            let v = Reasoner.consistent_with ~prov:memo r q in
            let v' =
              Tableau.kb_satisfiable ~max_nodes ~max_branches ~prov:fresh
                { told with Axiom.abox = told.Axiom.abox @ q }
            in
            Bool.equal v v'
            && ((not (Tableau.kb_satisfiable ~max_nodes ~max_branches told))
               || subset (Tableau.prov_individuals fresh)
                    (Tableau.prov_individuals memo)
                  && subset (Tableau.prov_concepts fresh)
                       (Tableau.prov_concepts memo)))
  in
  List.fold_left step (Some true) ops

let base_tests =
  [ budgeted_test ~count:300 ~max_skip_share:0.05
      ~name:"a reasoner's saturated base agrees with a fresh run"
      ~print:print_base_case gen_base_case base_case_agrees ]

(* ------------------------------------------------------------------ *)
(* The witness.  A tableau-pinned oracle answers a non-entailment from
   the one verified model of K̄ its reasoner keeps, and keeps that model
   across deltas it can patch and verify.  One oracle is put through
   random sequences of the six query shapes and of deltas (ABox
   additions, atomic ones included so that patches happen, retractions,
   TBox additions), over concepts with ∀, ≥ n, ≤ n, inverse roles and
   nominals, one of which names an individual no told assertion does;
   each verdict, computed or served from the cache, must equal one
   decided by runs alone on a fresh reasoner over the current K̄, and
   the witness, when there is one, must be a model of that K̄.  The
   share of computed verdicts that took no run is printed when the suite
   ends and must not be 0.  It runs under the budgeted tests' budget;
   CHANGES.md lists the mutants it fails on. *)

let gen_witness_concept =
  let open Gen in
  let leaf =
    frequency
      [ (6, gen_literal);
        (1, map (fun a -> Concept.One_of [ a ]) (oneofl ("c" :: base_individuals))) ]
  in
  let node self =
    frequency
      [ (3, leaf);
        (1, map2 (fun a b -> Concept.And (a, b)) self self);
        (1, map2 (fun a b -> Concept.Or (a, b)) self self);
        (2, map2 (fun r c -> Concept.Exists (r, c)) gen_role leaf);
        (2, map2 (fun r c -> Concept.Forall (r, c)) gen_role leaf);
        (1, map2 (fun k r -> Concept.At_least (k, r)) (int_range 1 2) gen_role);
        (1, map2 (fun k r -> Concept.At_most (k, r)) (int_bound 1) gen_role) ]
  in
  node leaf

let gen_witness_tbox =
  let open Gen in
  frequency
    [ ( 5,
        map3
          (fun k c d -> Kb4.Concept_inclusion (k, c, d))
          (frequencyl [ (3, Kb4.Material); (1, Kb4.Internal); (1, Kb4.Strong) ])
          (frequency [ (2, gen_atom); (1, gen_witness_concept) ])
          gen_witness_concept );
      (1, map3 (fun k r s -> Kb4.Role_inclusion (k, r, s)) gen_inclusion gen_role gen_role);
      (1, map (fun r -> Kb4.Transitive r) (oneofl role_names)) ]

let gen_witness_abox =
  let open Gen in
  let ind = oneofl base_individuals in
  frequency
    [ (3, map2 (fun a c -> Axiom.Instance_of (a, c)) ind gen_literal);
      (2, map2 (fun a c -> Axiom.Instance_of (a, c)) ind gen_witness_concept);
      (2, map3 (fun a r b -> Axiom.Role_assertion (a, r, b)) ind gen_role ind) ]

type witness_op =
  | Ask of Backend.query
  | Change of Delta.t
  | Drop of int  (* retract the told assertion at this index, modulo *)

(* [probes] are concepts every element satisfies in every model of the
   case's K̄, one per material inclusion [C ↦ D] of its TBox: K̄ holds
   [¬C⁻ ⊑ D⁺], which is [(¬C ⊔ D)⁺].  Asked at a named individual and
   at its neighbours along every role, they reach the anonymous part of
   a witness, where a candidate that fails verification breaks. *)
let here_and_around c =
  Concept.conj
    (c
    :: List.concat_map
         (fun r -> [ Concept.Forall (Role.Name r, c); Concept.Forall (Role.Inv r, c) ])
         role_names)

let gen_witness_query probes =
  let open Gen in
  let ind = oneofl base_individuals in
  let probe =
    match probes with
    | [] -> []
    | _ ->
        [ ( 1,
            map2
              (fun a c -> Backend.Instance (a, here_and_around c))
              ind (oneofl probes) ) ]
  in
  frequency
    @@ probe
    @ [ (1, return Backend.Consistent);
      ( 1,
        map (fun c -> Backend.Concept_sat (Transform.concept_pos c))
          gen_witness_concept );
      (3, map2 (fun a c -> Backend.Instance (a, c)) ind gen_witness_concept);
      (3, map2 (fun a c -> Backend.Not_instance (a, c)) ind gen_witness_concept);
      (3, map3 (fun a r b -> Backend.Role_pos (a, r, b)) ind gen_role ind);
      (2, map3 (fun a r b -> Backend.Role_neg (a, r, b)) ind gen_role ind) ]

let gen_witness_case =
  let open Gen in
  let* n_tbox = int_bound 3 in
  let* tbox = list_repeat n_tbox gen_witness_tbox in
  let* n_abox = int_range 1 5 in
  let* abox = list_repeat n_abox gen_witness_abox in
  let probes =
    List.filter_map
      (function
        | Kb4.Concept_inclusion (Kb4.Material, c, d) ->
            Some (Concept.Or (Concept.Not c, d))
        | _ -> None)
      tbox
  in
  let* n_ops = int_range 4 12 in
  let add ax = { Delta.empty with Delta.add_abox = [ ax ] } in
  let* ops =
    list_repeat n_ops
      (frequency
         [ (8, map (fun q -> Ask q) (gen_witness_query probes));
           (2, map (fun ax -> Change (add ax)) gen_witness_abox);
           (1, map (fun i -> Drop i) nat);
           ( 1,
             map
               (fun ax -> Change { Delta.empty with Delta.add_tbox = [ ax ] })
               gen_witness_tbox ) ])
  in
  return (Kb4.make ~tbox ~abox, ops)

let print_witness_case (kb, ops) =
  Surface.kb4_to_string kb ^ "\n"
  ^ String.concat "\n"
      (List.map
         (function
           | Ask q -> "? " ^ Backend.query_to_string q
           | Change d ->
               "+ "
               ^ Surface.kb4_to_string (Kb4.make ~tbox:d.add_tbox ~abox:d.add_abox)
           | Drop i -> Printf.sprintf "- #%d" i)
         ops)

(* The verdict of runs alone: a fresh reasoner has no witness, and
   [consistent_with] is always a run. *)
let verdict_by_runs kb (q : Backend.query) =
  let r = Reasoner.create ~max_nodes ~max_branches kb in
  let sat extra = Reasoner.consistent_with r extra in
  match q with
  | Consistent -> sat []
  | Concept_sat c -> sat [ Axiom.Instance_of ("q:fresh", c) ]
  | Instance (a, c) -> not (sat [ Transform.instance_query c a ])
  | Not_instance (a, c) -> not (sat [ Transform.negative_instance_query c a ])
  | Role_pos (a, r, b) ->
      not
        (sat
           [ Axiom.Instance_of (b, Concept.Atom "q:marker");
             Axiom.Instance_of
               (a, Concept.Forall (Transform.plus_role r, Concept.Not (Concept.Atom "q:marker")))
           ])
  | Role_neg (a, r, b) ->
      not (sat [ Axiom.Role_assertion (a, Transform.eq_role r, b) ])

let witness_computed = ref 0
let witness_decided = ref 0

let witness_case_agrees (kb, ops) =
  let o =
    Oracle.of_config
      { Oracle.default_config with max_nodes; max_branches; backend = Backend.Tableau }
      kb
  in
  let runs () = (Reasoner.stats (Oracle.reasoner o)).Tableau.runs in
  let step ok op =
    match ok with
    | Some false | None -> ok
    | Some true ->
        with_budget (fun () ->
            match op with
            | Ask q ->
                let calls0 = Oracle.tableau_calls o and runs0 = runs () in
                let v = Oracle.check o q in
                if Oracle.tableau_calls o > calls0 then begin
                  incr witness_computed;
                  if runs () = runs0 then incr witness_decided
                end;
                let kbar = Oracle.classical_kb o in
                Bool.equal v (verdict_by_runs kbar q)
                && Option.fold ~none:true
                     ~some:(fun w -> Interp.is_model w kbar)
                     (Reasoner.witness (Oracle.reasoner o))
            | Change d ->
                ignore (Oracle.apply o d : Oracle.apply_stats);
                true
            | Drop i ->
                let abox = (Oracle.kb o).Kb4.abox in
                if abox <> [] then
                  ignore
                    (Oracle.apply o
                       { Delta.empty with
                         Delta.retract_abox = [ List.nth abox (i mod List.length abox) ] }
                      : Oracle.apply_stats);
                true)
  in
  List.fold_left step (Some true) ops

let () =
  at_exit (fun () ->
      if !witness_computed > 0 then
        Printf.printf "\nwitness path: %d of %d computed verdicts took no run\n"
          !witness_decided !witness_computed)

(* worst measured: 18 of 300 over seeds 1-60 *)
let witness_tests =
  let name, speed, run =
    budgeted_test ~count:300 ~max_skip_share:0.15
      ~name:"a tableau-pinned oracle's witness verdicts agree with fresh runs"
      ~print:print_witness_case gen_witness_case witness_case_agrees
  in
  [ ( name,
      speed,
      fun () ->
        run ();
        if !witness_decided = 0 then
          Alcotest.fail "no verdict was decided by the witness" ) ]

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
      ("differential",
        differential_tests @ absorption_tests @ base_tests @ witness_tests);
      ("native4", native_tests);
      ("prop4", to_alcotest prop4_tests);
      ("baselines", to_alcotest baseline_tests);
      ("datatype", to_alcotest datatype_tests) ]
