(* PR 4: incremental KB deltas with provenance-keyed invalidation.

   - Surface syntax: parse / pp round trips, script splitting, the
     TBox-retraction rejection.
   - Differential invariant: for paper Examples 1-4 and two generated
     KBs, a deterministic pseudo-random delta sequence is replayed twice
     — incrementally through one live Session, and by rebuilding a fresh
     stack over the delta-applied KB at every step.  Satisfiability, the
     full (individual x atom) Belnap grid, retrieval and classification
     must agree at every step, and the classical KB maintained by the
     incremental reasoner prep must equal the from-scratch transform.
   - Retention: on a KB of two disconnected components, a delta touching
     one component keeps the other component's warm verdicts — re-asking
     them pays zero new tableau calls, proven on the oracle's call
     counter; their provenance demonstrably excludes the delta's
     individuals.
   - Rollback: an update that trips, as one delta or within a script,
     leaves K and K̄ as they were.
   - Session config: the unified record and the deprecated optional-arg
     constructors build equivalent stacks. *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Surface syntax *)

let ok_parse text =
  match Delta.parse text with
  | Ok d -> d
  | Error e -> Alcotest.failf "delta parse failed: %s" e

let parse_tests =
  [ Alcotest.test_case "parse and print round trip" `Quick (fun () ->
        let d =
          ok_parse
            "# comment\n\
             + tweety : Fly.\n\
             + Penguin < Bird.\n\
             - hasWing(tweety, w).\n"
        in
        checki "adds" 1 (List.length d.Delta.add_abox);
        checki "tbox adds" 1 (List.length d.Delta.add_tbox);
        checki "retracts" 1 (List.length d.Delta.retract_abox);
        let d2 = ok_parse (Delta.to_string d) in
        checkb "round trip" true (d = d2));
    Alcotest.test_case "script splits on ---" `Quick (fun () ->
        match
          Delta.parse_script
            "+ a : C.\n---\n# only a comment here\n---\n- a : C.\n"
        with
        | Error e -> Alcotest.failf "script: %s" e
        | Ok ds ->
            (* the all-comment middle chunk is skipped *)
            checki "two non-empty deltas" 2 (List.length ds));
    Alcotest.test_case "TBox retraction is rejected" `Quick (fun () ->
        match Delta.parse "- Penguin < Bird.\n" with
        | Ok _ -> Alcotest.fail "TBox retraction must not parse"
        | Error e ->
            checkb "message mentions monotone" true
              (String.length e > 0));
    Alcotest.test_case "script errors report file line numbers" `Quick
      (fun () ->
        (* the bogus statement sits on line 4 of the file but line 2 of
           its chunk — the error must count from the file start *)
        match Delta.parse_script "+ a : C.\n---\n# ok\nbogus line\n" with
        | Ok _ -> Alcotest.fail "bogus statement must not parse"
        | Error e ->
            let contains sub =
              let n = String.length e and m = String.length sub in
              let rec go i = i + m <= n && (String.sub e i m = sub || go (i + 1)) in
              go 0
            in
            checkb "names the second delta" true (contains "delta 2");
            checkb "line counted from the file start" true (contains "line 4"));
    Alcotest.test_case "individuals and atoms of a delta" `Quick (fun () ->
        let d = ok_parse "+ a : C & some r.{b}.\n- s(a, c).\n" in
        check
          Alcotest.(list string)
          "individuals" [ "a"; "b"; "c" ] (Delta.individuals d);
        check Alcotest.(list string) "atoms" [ "C" ] (Delta.atoms d)) ]

(* ------------------------------------------------------------------ *)
(* Differential: incremental = rebuild *)

let sorted = List.sort_uniq String.compare

let grid_of t kb =
  let s = Kb4.signature kb in
  let pairs =
    List.concat_map
      (fun a -> List.map (fun c -> (a, Concept.Atom c)) (sorted s.Axiom.concepts))
      (sorted s.Axiom.individuals)
  in
  Para.instance_truths t pairs

let snapshot t kb =
  ( Para.satisfiable t,
    grid_of t kb,
    (match sorted (Kb4.signature kb).Axiom.concepts with
    | c :: _ -> Para.retrieve t (Concept.Atom c)
    | [] -> []),
    Session.classify t )

(* A deterministic delta sequence over the KB's signature: new-component
   additions, in-place additions, retractions of told assertions, and an
   atomic TBox addition of any inclusion kind (internal ones absorb on
   their left atom; material ones absorb on its negation and flush;
   strong ones can give a negatively absorbed name a positive rule and
   flush); one GCI-shaped addition exercises the full flush.  Every
   choice comes from a seeded PRNG so failures reproduce. *)
let gen_deltas rng kb steps =
  let s = Kb4.signature kb in
  let atoms = match sorted s.Axiom.concepts with [] -> [ "C" ] | l -> l in
  let roles = match sorted s.Axiom.roles with [] -> [ "r" ] | l -> l in
  let inds =
    match sorted s.Axiom.individuals with [] -> [ "a" ] | l -> l
  in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let fresh_count = ref 0 in
  let fresh () =
    incr fresh_count;
    Format.asprintf "z%d" !fresh_count
  in
  let current = ref kb in
  List.init steps (fun _ ->
      let d =
        match Random.State.int rng 6 with
        | 0 ->
            (* fresh component *)
            let z = fresh () in
            { Delta.empty with
              Delta.add_abox =
                [ Axiom.Instance_of (z, Concept.Atom (pick atoms)) ] }
        | 1 ->
            (* attach to an existing individual *)
            { Delta.empty with
              Delta.add_abox =
                [ Axiom.Role_assertion
                    (pick inds, Role.name (pick roles), fresh ()) ] }
        | 2 ->
            (* in-place concept assertion *)
            { Delta.empty with
              Delta.add_abox =
                [ Axiom.Instance_of (pick inds, Concept.Atom (pick atoms)) ] }
        | 3 -> (
            (* retract a told assertion, if any *)
            match (!current).Kb4.abox with
            | [] -> Delta.empty
            | abox ->
                { Delta.empty with
                  Delta.retract_abox =
                    [ List.nth abox (Random.State.int rng (List.length abox)) ]
                })
        | 4 ->
            (* atomic TBox addition *)
            { Delta.empty with
              Delta.add_tbox =
                [ Kb4.Concept_inclusion
                    ( pick [ Kb4.Internal; Kb4.Material; Kb4.Strong ],
                      Concept.Atom (pick atoms),
                      Concept.Atom (pick atoms) ) ] }
        | _ ->
            (* GCI-shaped addition: exercises the full-flush path *)
            { Delta.empty with
              Delta.add_tbox =
                [ Kb4.Concept_inclusion
                    ( Kb4.Internal,
                      Concept.Or
                        (Concept.Atom (pick atoms), Concept.Atom (pick atoms)),
                      Concept.Atom (pick atoms) ) ] }
      in
      current := Delta.apply_kb4 !current d;
      d)

let pp_axioms kb =
  List.sort compare
    (List.map (Format.asprintf "%a" Axiom.pp_tbox_axiom) kb.Axiom.tbox)
  @ List.sort compare
      (List.map (Format.asprintf "%a" Axiom.pp_abox_axiom) kb.Axiom.abox)

let differential_case ?(config = Session.default_config) label kb seed =
  Alcotest.test_case
    (Format.asprintf "%s: incremental = rebuild (seed %d)" label seed)
    `Quick
    (fun () ->
      let rng = Random.State.make [| seed |] in
      let deltas = gen_deltas rng kb 4 in
      let session = Session.create ~config kb in
      let live = Para.of_session session in
      ignore (snapshot live kb);
      let acc = ref kb in
      List.iteri
        (fun i d ->
          ignore (Session.apply session d : Oracle.apply_stats);
          acc := Delta.apply_kb4 !acc d;
          checkb
            (Format.asprintf "%s step %d: session KB tracks the delta" label i)
            true
            (Session.kb session = !acc);
          (* the classical KB maintained incrementally by the reasoner
             prep must match the from-scratch transform *)
          check
            Alcotest.(list string)
            (Format.asprintf "%s step %d: incremental transform = rebuild"
               label i)
            (pp_axioms (Transform.kb !acc))
            (pp_axioms (Oracle.classical_kb (Session.oracle session)));
          let fresh = Para.create !acc in
          let inc = snapshot live !acc and ref_ = snapshot fresh !acc in
          checkb
            (Format.asprintf "%s step %d: answers identical" label i)
            true (inc = ref_))
        deltas)

let gen_kb seed =
  Gen.kb4
    { Gen.default with
      seed;
      n_concepts = 6;
      n_individuals = 6;
      n_tbox = 8;
      n_abox = 12;
      max_depth = 1;
      inconsistency_rate = 0.15 }

(* A small Horn/EL KB in the shape of test_backend's [gen_horn_kb4]: EL
   heads, Horn bodies (EL or a disjunction of EL), an occasional
   [A ⊑ ⊥], literal concept assertions, role edges and equalities — so
   the [Auto] stack routes its verdicts to the completion backend. *)
let gen_horn_kb seed =
  let rng = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let atom () = Concept.Atom (pick [ "A"; "B"; "C"; "D" ]) in
  let r = Role.name "r" in
  let ind () = pick [ "a"; "b"; "c"; "d"; "e" ] in
  let el () =
    match Random.State.int rng 3 with
    | 0 -> atom ()
    | 1 -> Concept.And (atom (), atom ())
    | _ -> Concept.Exists (r, atom ())
  in
  let body () =
    if Random.State.int rng 3 = 0 then Concept.Or (el (), el ()) else el ()
  in
  let tbox =
    List.init 4 (fun _ ->
        if Random.State.int rng 7 = 0 then
          Kb4.Concept_inclusion (Kb4.Internal, atom (), Concept.Bottom)
        else Kb4.Concept_inclusion (Kb4.Internal, body (), el ()))
  in
  let abox =
    List.init 8 (fun _ ->
        match Random.State.int rng 9 with
        | 0 -> Axiom.Same (ind (), ind ())
        | n when n < 5 ->
            let c = atom () in
            Axiom.Instance_of
              (ind (), if Random.State.bool rng then c else Concept.Not c)
        | _ -> Axiom.Role_assertion (ind (), r, ind ()))
  in
  Kb4.make ~tbox ~abox

let auto_capacity n =
  { Session.default_config with backend = Backend.Auto; cache_capacity = n }

let differential_tests =
  [ differential_case "example1" Paper_examples.example1 1;
    differential_case "example2" Paper_examples.example2 2;
    differential_case "example3" Paper_examples.example3 3;
    differential_case "example4" Paper_examples.example4 4;
    differential_case "gen41" (gen_kb 41) 5;
    differential_case "gen43" (gen_kb 43) 6;
    (* a tiny cache interleaves LRU capacity evictions with deltas, so
       the provenance/index lifetime must track cache residency for the
       invariant to hold *)
    differential_case
      ~config:{ Session.default_config with cache_capacity = 2 }
      "example1, capacity 2" Paper_examples.example1 7;
    differential_case
      ~config:{ Session.default_config with cache_capacity = 2 }
      "gen41, capacity 2" (gen_kb 41) 8;
    (* the same interleaving on the completion backend, where many
       verdicts share one recorded provenance entry *)
    Alcotest.test_case "horn7 is in the Horn fragment" `Quick (fun () ->
        checkb "complete_for" true
          (Fragment.eligible (Transform.kb (gen_horn_kb 7))));
    differential_case ~config:(auto_capacity 2) "example1, auto, capacity 2"
      Paper_examples.example1 9;
    differential_case ~config:(auto_capacity 8) "example1, auto, capacity 8"
      Paper_examples.example1 10;
    (* one delta sequence at both capacities (seed 12's sequence spends
       a minute in the tableau reference, whatever the live config) *)
    differential_case ~config:(auto_capacity 2) "horn7, auto, capacity 2"
      (gen_horn_kb 7) 11;
    differential_case ~config:(auto_capacity 8) "horn7, auto, capacity 8"
      (gen_horn_kb 7) 11 ]

(* ------------------------------------------------------------------ *)
(* Retention: verdicts of an untouched component survive for free *)

let retention_tests =
  [ Alcotest.test_case "untouched component re-asks pay zero tableau calls"
      `Quick (fun () ->
        (* two singleton components {a} and {b}; the TBox only relates
           C and D, so b's verdicts never depend on a *)
        let kb =
          Kb4.make
            ~tbox:
              [ Kb4.Concept_inclusion
                  (Kb4.Internal, Concept.Atom "C", Concept.Atom "D") ]
            ~abox:
              [ Axiom.Instance_of ("a", Concept.Atom "A");
                Axiom.Instance_of ("b", Concept.Atom "B") ]
        in
        let s = Session.create kb in
        let p = Para.of_session s in
        let calls () =
          Oracle.tableau_calls (Session.oracle s)
        in
        (* warm b's verdicts and global consistency *)
        checkb "satisfiable" true (Para.satisfiable p);
        let vb = Para.instance_truth p "b" (Concept.Atom "B") in
        let vbd = Para.instance_truth p "b" (Concept.Atom "D") in
        checkb "warm-up paid tableau calls" true (calls () > 0);
        (* b's provenance demonstrably excludes a *)
        (match
           Oracle.provenance (Session.oracle s)
             (Oracle.Instance ("b", Concept.Atom "B"))
         with
        | None -> Alcotest.fail "provenance of the warm verdict is missing"
        | Some e ->
            checkb "provenance mentions b" true
              (List.mem "b" e.Oracle.individuals);
            checkb "provenance excludes a" false
              (List.mem "a" e.Oracle.individuals));
        let before = calls () in
        let st =
          Session.apply s
            { Delta.empty with
              Delta.add_abox = [ Axiom.Instance_of ("a", Concept.Atom "C") ] }
        in
        checkb "delta did not flush" false st.Oracle.flushed;
        checkb "no consistency transition" false st.Oracle.consistency_flipped;
        (* apply itself pays only the post-delta consistency probe (the
           pre-delta status was already cached by the warm-up) *)
        checki "apply pays exactly one tableau call" 1
          st.Oracle.recheck_calls;
        checki "recheck calls are the only calls" (before + 1) (calls ());
        let after_apply = calls () in
        (* re-asking b's verdicts is pure cache traffic *)
        checkb "b : B unchanged" true
          (Para.instance_truth p "b" (Concept.Atom "B") = vb);
        checkb "b : D unchanged" true
          (Para.instance_truth p "b" (Concept.Atom "D") = vbd);
        checki "zero new tableau calls for the untouched component"
          after_apply (calls ());
        (* a's verdicts were evicted and do pay *)
        ignore (Para.instance_truth p "a" (Concept.Atom "C"));
        checkb "a's re-ask pays the tableau" true (calls () > after_apply)) ]

(* ------------------------------------------------------------------ *)
(* Guards: nominal-bearing TBox deltas must flush *)

let guard_tests =
  [ Alcotest.test_case "TBox-only delta with a nominal body flushes" `Quick
      (fun () ->
        (* Counterexample to per-atom eviction: o and b start in
           disjoint components, so a verdict about o has no A (and no b)
           in its provenance; the absorbable axiom A < {o} & C then
           merges every A-instance onto o without touching a single ABox
           assertion.  Evicting only the keys that mention A would serve
           o's verdict stale — the guard must flush. *)
        let kb =
          Kb4.make ~tbox:[]
            ~abox:[ Axiom.Instance_of ("o", Concept.Atom "D") ]
        in
        let s = Session.create kb in
        let o = Session.oracle s in
        let q = Oracle.Instance ("o", Concept.Atom "C") in
        let v0 = Oracle.check o q in
        checkb "o : C starts undetermined" false v0;
        let d1 =
          { Delta.empty with
            Delta.add_abox = [ Axiom.Instance_of ("b", Concept.Atom "A") ] }
        in
        let st1 = Session.apply s d1 in
        checkb "ABox delta in a fresh component does not flush" false
          st1.Oracle.flushed;
        checkb "verdict correctly retained across delta 1" v0
          (Oracle.check o q);
        let d2 =
          { Delta.empty with
            Delta.add_tbox =
              [ Kb4.Concept_inclusion
                  ( Kb4.Internal,
                    Concept.Atom "A",
                    Concept.And (Concept.One_of [ "o" ], Concept.Atom "C") )
              ] }
        in
        let st2 = Session.apply s d2 in
        checkb "nominal-bearing TBox delta flushes" true st2.Oracle.flushed;
        (* the merged b pulls C onto o: serving the pre-delta verdict
           would be an observable staleness, not just a formality *)
        checkb "o : C flipped by the merge" true (Oracle.check o q);
        let acc = Delta.apply_kb4 (Delta.apply_kb4 kb d1) d2 in
        let fresh = Session.create acc in
        checkb "incremental = rebuild after the nominal merge"
          (Oracle.check (Session.oracle fresh) q)
          (Oracle.check o q));
    Alcotest.test_case "a positive rule on a negatively absorbed name flushes"
      `Quick (fun () ->
        (* ~A- << C+ unfolds on ~A-, and C+ << Bottom makes every node
           an A-, so x's label never mentions A.  B -> A adds
           A- << B-, a positive rule on A-: now every node is a B-, and
           B- << E+ makes x an E.  The pre-delta verdict on x : E
           records only x and E, so evicting by A and B would serve it
           stale. *)
        let kb = Surface.parse_kb4_exn "A |-> C.
C < Bottom.
~B < E.
x : D.
" in
        let s = Session.create kb in
        let p = Para.of_session s in
        let e = Concept.Atom "E" in
        check Alcotest.string "x : E before" "N"
          (Truth.short_string (Para.instance_truth p "x" e));
        let d = ok_parse "+ B -> A.
" in
        let st = Session.apply s d in
        checkb "the update flushes" true st.Oracle.flushed;
        let fresh = Para.create (Delta.apply_kb4 kb d) in
        check Alcotest.string "incremental = rebuild"
          (Truth.short_string (Para.instance_truth fresh "x" e))
          (Truth.short_string (Para.instance_truth p "x" e));
        check Alcotest.string "x : E after" "t"
          (Truth.short_string (Para.instance_truth p "x" e))) ]

(* ------------------------------------------------------------------ *)
(* Provenance lifetime tracks cache residency *)

let residency_tests =
  [ Alcotest.test_case "capacity evictions drop provenance too" `Quick
      (fun () ->
        let kb = Paper_examples.example1 in
        let s =
          Session.create
            ~config:{ Session.default_config with cache_capacity = 2 }
            kb
        in
        let o = Session.oracle s in
        let sg = Kb4.signature kb in
        List.iter
          (fun a ->
            List.iter
              (fun c ->
                ignore
                  (Oracle.check o (Oracle.Instance (a, Concept.Atom c)) : bool))
              sg.Axiom.concepts)
          sg.Axiom.individuals;
        let live = (Oracle.cache_stats o).Verdict_cache.size in
        checkb "cache stayed within capacity" true (live <= 2);
        (* without the eviction hook this grows with every distinct query *)
        checki "one provenance entry per live verdict" live
          (List.length (Oracle.provenances o)));
    Alcotest.test_case "a recomputed verdict is indexed by its new provenance"
      `Quick (fun () ->
        (* a's verdict first depends on b through r(a, b); once the edge
           is retracted and the verdict recomputed, it mentions neither b
           nor B, so an absorbable axiom on B must leave it resident *)
        let kb = Surface.parse_kb4_exn "A < C.\na : A.\nr(a, b).\nb : B.\n" in
        let o =
          Oracle.of_config
            { Oracle.default_config with Oracle.backend = Backend.Horn }
            kb
        in
        let q = Oracle.Instance ("a", Concept.Atom "A") in
        let calls () = Oracle.tableau_calls o in
        let prov () =
          match Oracle.provenance o q with
          | None -> Alcotest.fail "a : A has no provenance"
          | Some e -> (e.Oracle.individuals, e.Oracle.concepts)
        in
        let pair = Alcotest.(pair (list string) (list string)) in
        checkb "a : A" true (Oracle.check o q);
        check pair "provenance through r(a, b)"
          ([ "a"; "b" ], [ "A"; "B"; "C" ])
          (prov ());
        ignore (Oracle.apply o (ok_parse "- r(a, b).\n") : Oracle.apply_stats);
        checkb "a : A after the retraction" true (Oracle.check o q);
        check pair "provenance without the edge"
          ([ "a" ], [ "A"; "C" ])
          (prov ());
        let before = calls () in
        let st = Oracle.apply o (ok_parse "+ B < D.\n") in
        checki "only the consistency bit is evicted" 1 st.Oracle.evicted;
        checkb "no flush" false st.Oracle.flushed;
        let after_apply = calls () in
        checki "apply paid only the consistency probe" (before + 1) after_apply;
        checkb "a : A still holds" true (Oracle.check o q);
        checki "re-asking a : A pays nothing" after_apply (calls ()));
    Alcotest.test_case "disabled cache records no provenance" `Quick
      (fun () ->
        let s =
          Session.create
            ~config:{ Session.default_config with cache_capacity = 0 }
            Paper_examples.example1
        in
        let p = Para.of_session s in
        ignore (Para.satisfiable p);
        ignore (Para.instance_truth p "bill" (Concept.Atom "Doctor"));
        checki "nothing recorded" 0
          (List.length (Oracle.provenances (Session.oracle s))));
    Alcotest.test_case "a consistency flip keeps only the bit, uncosted"
      `Quick (fun () ->
        let o =
          Oracle.of_config Oracle.default_config
            (Surface.parse_kb4_exn "a : A.\nb : B.\n")
        in
        checkb "consistent" true (Oracle.check o Oracle.Consistent);
        ignore (Oracle.check o (Oracle.Instance ("a", Concept.Atom "A")) : bool);
        ignore (Oracle.check o (Oracle.Instance ("b", Concept.Atom "B")) : bool);
        let st = Oracle.apply o (ok_parse "+ c : Bottom.\n") in
        checkb "the delta flips consistency" true st.Oracle.consistency_flipped;
        checki "only the consistency bit is retained" 1 st.Oracle.retained;
        checkb "the bit keeps its provenance" true
          (Oracle.provenance o Oracle.Consistent <> None);
        checkb "but not its cost record" true
          (Oracle.cost o Oracle.Consistent = None));
    Alcotest.test_case "an import over a resident key moves it to the new group"
      `Quick (fun () ->
        let o =
          Oracle.of_config Oracle.default_config
            (Surface.parse_kb4_exn "a : A.\nb : B.\n")
        in
        let q = Oracle.Instance ("a", Concept.Atom "A") in
        checkb "a : A" true (Oracle.check o q);
        checkb "resident with a's provenance" true
          (match Oracle.provenance o q with
          | Some e -> e.Oracle.individuals = [ "a" ]
          | None -> false);
        let moved = { Oracle.individuals = [ "b" ]; concepts = [ "B" ] } in
        ignore
          (Oracle.import_entries o
             [ { Oracle.x_query = q;
                 x_verdict = true;
                 x_prov = Some moved;
                 x_cost = None } ]
            : int);
        checkb "the import's provenance" true
          (Oracle.provenance o q = Some moved);
        ignore (Oracle.apply o (ok_parse "+ a : C.\n") : Oracle.apply_stats);
        checkb "a delta reaching only a keeps the verdict" true
          (Oracle.provenance o q = Some moved);
        ignore (Oracle.apply o (ok_parse "+ b : C.\n") : Oracle.apply_stats);
        checkb "a delta reaching b evicts it" true
          (Oracle.provenance o q = None)) ]

(* ------------------------------------------------------------------ *)
(* Rollback: an update that fails changes nothing *)

(* refuting b's assertion takes one run 14 branches, so under a budget of
   8 the post-delta consistency probe trips *)
let tripping =
  "+ b : (X1 | Y1) & (X2 | Y2) & (X3 | Y3) & ((>= 1 r) | Bottom) & (only \
   r.Bottom).\n"

let rollback_tests =
  [ Alcotest.test_case "a tripped probe leaves K and the classical KB" `Quick
      (fun () ->
        let o =
          Oracle.of_config
            { Oracle.default_config with Oracle.max_branches = 8 }
            (Surface.parse_kb4_exn "a : A.\n")
        in
        let kb0 = Oracle.kb o and ckb0 = Oracle.classical_kb o in
        ignore (Oracle.check o (Oracle.Instance ("a", Concept.Atom "A")) : bool);
        (match Oracle.apply o (ok_parse tripping) with
        | _ -> Alcotest.fail "the probe must trip"
        | exception Tableau.Resource_limit _ -> ());
        checkb "K is the pre-update one" true (Oracle.kb o = kb0);
        checkb "so is the classical KB" true (Oracle.classical_kb o = ckb0);
        checki "no cached verdict is left" 0
          (Oracle.cache_stats o).Verdict_cache.size;
        checkb "the next probe answers the old KB" true
          (Oracle.check o Oracle.Consistent));
    Alcotest.test_case "a script whose second delta trips is undone whole"
      `Quick (fun () ->
        let kb0 = Surface.parse_kb4_exn "a : A.\n" in
        let s =
          Session.create
            ~config:{ Session.default_config with max_branches = 8 }
            kb0
        in
        (match
           Session.apply_all s [ ok_parse "+ c : C.\n"; ok_parse tripping ]
         with
        | _ -> Alcotest.fail "the second delta must trip"
        | exception Tableau.Resource_limit _ -> ());
        checkb "the KB is the pre-script one" true (Session.kb s = kb0);
        checkb "the classical KB too" true
          (Session.classical_kb s = Transform.kb kb0)) ]

(* ------------------------------------------------------------------ *)
(* Session config *)

let config_tests =
  [ Alcotest.test_case "config record and legacy arguments are equivalent"
      `Quick (fun () ->
        let kb = Paper_examples.example3 in
        let config = { Session.default_config with cache_capacity = 64 } in
        let s = Session.create ~config kb in
        checki "cache_capacity" 64 (Session.config s).Session.cache_capacity;
        let via_session = Para.of_session s in
        let legacy = Para.create ~config:{ Oracle.default_config with Oracle.cache_capacity = 64 } kb in
        checkb "same satisfiability" true
          (Para.satisfiable via_session = Para.satisfiable legacy);
        checkb "same contradictions" true
          (Para.contradictions via_session = Para.contradictions legacy));
    Alcotest.test_case "apply_all on an empty list reports retained" `Quick
      (fun () ->
        let s = Session.create Paper_examples.example1 in
        let p = Para.of_session s in
        ignore (Para.satisfiable p);
        ignore (Para.instance_truth p "bill" (Concept.Atom "Doctor"));
        let size = (Oracle.cache_stats (Session.oracle s)).Verdict_cache.size in
        checkb "warm-up cached verdicts" true (size > 0);
        let st = Session.apply_all s [] in
        checki "retained reports the live cache" size st.Oracle.retained;
        checki "nothing evicted" 0 st.Oracle.evicted;
        checkb "no flush" false st.Oracle.flushed) ]

let () =
  Alcotest.run "delta"
    [ ("parse", parse_tests);
      ("differential", differential_tests);
      ("retention", retention_tests);
      ("guards", guard_tests);
      ("residency", residency_tests);
      ("rollback", rollback_tests);
      ("config", config_tests) ]
