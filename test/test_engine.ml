(* Tests for the Dl_engine subsystem: canonical query keys, the LRU verdict
   cache, told-seeded classification and hierarchy-pruned realization —
   differentially tested against the naive Para baselines. *)

open Concept

let kb_of src = Surface.parse_kb4_exn src
let tv = Alcotest.testable Truth.pp Truth.equal

let hierarchy =
  Alcotest.(list (pair string (list string)))

(* ------------------------------------------------------------------ *)
(* Qkey: canonical keys *)

let same a b =
  Alcotest.(check bool)
    (Printf.sprintf "%s ~ %s" (Concept.to_string a) (Concept.to_string b))
    true
    (Qkey.equal (Qkey.of_concept a) (Qkey.of_concept b))

let distinct a b =
  Alcotest.(check bool)
    (Printf.sprintf "%s <> %s" (Concept.to_string a) (Concept.to_string b))
    false
    (Qkey.equal (Qkey.of_concept a) (Qkey.of_concept b))

let qkey_tests =
  [ Alcotest.test_case "commuted conjunction shares a key" `Quick (fun () ->
        same (And (Atom "A", Atom "B")) (And (Atom "B", Atom "A")));
    Alcotest.test_case "reassociated disjunction shares a key" `Quick
      (fun () ->
        same
          (Or (Atom "A", Or (Atom "B", Atom "C")))
          (Or (Or (Atom "C", Atom "A"), Atom "B")));
    Alcotest.test_case "duplicate conjuncts collapse" `Quick (fun () ->
        same (And (Atom "A", Atom "A")) (Atom "A"));
    Alcotest.test_case "double negation collapses" `Quick (fun () ->
        same (Not (Not (Atom "A"))) (Atom "A"));
    Alcotest.test_case "negation is pushed inside (NNF)" `Quick (fun () ->
        same
          (Not (And (Atom "A", Atom "B")))
          (Or (Not (Atom "A"), Not (Atom "B"))));
    Alcotest.test_case "nominal order is canonical" `Quick (fun () ->
        same (One_of [ "b"; "a"; "b" ]) (One_of [ "a"; "b" ]));
    Alcotest.test_case "units are absorbed" `Quick (fun () ->
        same (And (Atom "A", Top)) (Atom "A");
        same (Or (Atom "A", Bottom)) (Atom "A");
        same (And (Atom "A", Bottom)) Bottom);
    Alcotest.test_case "different concepts keep different keys" `Quick
      (fun () ->
        distinct (Atom "A") (Atom "B");
        distinct (And (Atom "A", Atom "B")) (Or (Atom "A", Atom "B"));
        distinct
          (Exists (Role.name "r", Atom "A"))
          (Exists (Role.name "s", Atom "A")));
    Alcotest.test_case "canonical form under quantifiers" `Quick (fun () ->
        same
          (Exists (Role.name "r", And (Atom "B", Atom "A")))
          (Exists (Role.name "r", And (Atom "A", Atom "B"))))
  ]

(* ------------------------------------------------------------------ *)
(* Verdict_cache: LRU behaviour and counters *)

module Int_cache = Verdict_cache.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

let cache_tests =
  [ Alcotest.test_case "hit and miss counters" `Quick (fun () ->
        let c = Int_cache.create ~capacity:8 in
        Alcotest.(check (option string)) "miss" None (Int_cache.find c 1);
        Int_cache.add c 1 "one";
        Alcotest.(check (option string))
          "hit" (Some "one") (Int_cache.find c 1);
        let s = Int_cache.stats c in
        Alcotest.(check int) "hits" 1 s.Verdict_cache.hits;
        Alcotest.(check int) "misses" 1 s.Verdict_cache.misses);
    Alcotest.test_case "LRU eviction order" `Quick (fun () ->
        let c = Int_cache.create ~capacity:2 in
        Int_cache.add c 1 "one";
        Int_cache.add c 2 "two";
        ignore (Int_cache.find c 1);
        (* 2 is now least recent *)
        Int_cache.add c 3 "three";
        Alcotest.(check (option string))
          "1 survives" (Some "one") (Int_cache.find c 1);
        Alcotest.(check (option string)) "2 evicted" None (Int_cache.find c 2);
        Alcotest.(check (option string))
          "3 present" (Some "three") (Int_cache.find c 3);
        Alcotest.(check int) "one eviction" 1
          (Int_cache.stats c).Verdict_cache.evictions);
    Alcotest.test_case "overwrite refreshes, does not grow" `Quick (fun () ->
        let c = Int_cache.create ~capacity:2 in
        Int_cache.add c 1 "one";
        Int_cache.add c 2 "two";
        Int_cache.add c 1 "uno";
        Int_cache.add c 3 "three";
        Alcotest.(check (option string))
          "refreshed 1 survives" (Some "uno") (Int_cache.find c 1);
        Alcotest.(check (option string)) "2 evicted" None (Int_cache.find c 2));
    Alcotest.test_case "capacity 0 disables storage" `Quick (fun () ->
        let c = Int_cache.create ~capacity:0 in
        Int_cache.add c 1 "v";
        Alcotest.(check (option string)) "not stored" None (Int_cache.find c 1);
        Alcotest.(check int) "empty" 0 (Int_cache.length c);
        Alcotest.(check int) "the lookup missed" 1
          (Int_cache.stats c).Verdict_cache.misses);
    Alcotest.test_case "on_evict fires on capacity eviction only" `Quick
      (fun () ->
        let c = Int_cache.create ~capacity:2 in
        let evicted = ref [] in
        Int_cache.on_evict c (fun k _ -> evicted := k :: !evicted);
        Int_cache.add c 1 "one";
        Int_cache.add c 2 "two";
        Int_cache.add c 3 "three";
        Alcotest.(check (list int)) "LRU key reported" [ 1 ] !evicted;
        (* explicit invalidation and flushes stay silent *)
        ignore (Int_cache.remove c 2 : string option);
        Int_cache.purge c;
        Alcotest.(check (list int)) "remove/purge do not fire" [ 1 ] !evicted);
    Alcotest.test_case "the eviction hook sees the evicted value" `Quick
      (fun () ->
        let c = Int_cache.create ~capacity:1 in
        let seen = ref [] in
        Int_cache.on_evict c (fun k v -> seen := (k, v) :: !seen);
        Int_cache.add c 1 "one";
        Int_cache.add c 2 "two";
        Alcotest.(check (list (pair int string)))
          "key and value" [ (1, "one") ] !seen);
    Alcotest.test_case "remove returns the removed value" `Quick (fun () ->
        let c = Int_cache.create ~capacity:4 in
        Int_cache.add c 1 "one";
        Alcotest.(check (option string))
          "present" (Some "one") (Int_cache.remove c 1);
        Alcotest.(check (option string)) "gone" None (Int_cache.remove c 1);
        Alcotest.(check int) "empty" 0 (Int_cache.length c);
        Alcotest.(check int) "not an eviction" 0
          (Int_cache.stats c).Verdict_cache.evictions);
    Alcotest.test_case "peek moves no counter and no recency" `Quick
      (fun () ->
        let c = Int_cache.create ~capacity:2 in
        Int_cache.add c 1 "one";
        Int_cache.add c 2 "two";
        Alcotest.(check (option string))
          "resident" (Some "one") (Int_cache.peek c 1);
        Alcotest.(check (option string)) "absent" None (Int_cache.peek c 3);
        let s = Int_cache.stats c in
        Alcotest.(check (pair int int)) "no hit, no miss" (0, 0)
          (s.Verdict_cache.hits, s.Verdict_cache.misses);
        (* 1 is still the least recent, so it makes room for 3 *)
        Int_cache.add c 3 "three";
        Alcotest.(check (option string)) "1 evicted" None (Int_cache.peek c 1);
        Alcotest.(check (option string))
          "2 survives" (Some "two") (Int_cache.peek c 2))
  ]

(* ------------------------------------------------------------------ *)
(* Classification: engine = naive on the paper's KBs and random KBs *)

let check_classification ?(label = "") kb =
  let t = Para.create kb in
  let naive = Para.classify_naive t in
  let e = Session.create kb in
  let cls = Session.classification e in
  Alcotest.check hierarchy
    (label ^ " engine classification = naive all-pairs")
    naive cls.Classify.supers;
  Alcotest.check hierarchy
    (label ^ " Session.classify (delegated) = naive")
    naive (Session.classify t);
  let s = cls.Classify.stats in
  Alcotest.(check bool)
    (label ^ " engine uses no more tableau calls than naive")
    true
    (s.Classify.tableau_tests <= s.Classify.naive_tests)

let gen_kb seed =
  Gen.kb4
    { Gen.default with
      seed;
      n_concepts = 6;
      n_individuals = 5;
      n_tbox = 8;
      n_abox = 12;
      max_depth = 1;
      inconsistency_rate = 0.15 }

let classification_tests =
  [ Alcotest.test_case "paper examples 1-5" `Quick (fun () ->
        List.iter
          (fun (label, kb) -> check_classification ~label kb)
          [ ("ex1", Paper_examples.example1);
            ("ex2", Paper_examples.example2);
            ("ex3/ex5", Paper_examples.example3);
            ("ex4", Paper_examples.example4) ]);
    Alcotest.test_case "random KBs" `Slow (fun () ->
        List.iter
          (fun seed ->
            check_classification
              ~label:(Printf.sprintf "seed %d" seed)
              (gen_kb seed))
          [ 1; 2; 3; 4 ]);
    Alcotest.test_case "told chain is classified without tableau calls"
      `Quick (fun () ->
        (* A < B < C < D: all 6 subsumptions follow from the told closure,
           only the 6 refutations need the oracle *)
        let kb = kb_of "A < B. B < C. C < D. x : A." in
        let e = Session.create kb in
        let s = (Session.classification e).Classify.stats in
        Alcotest.(check int) "told hits" 6 s.Classify.told_hits;
        Alcotest.(check bool) "strictly fewer calls than naive" true
          (s.Classify.tableau_tests < s.Classify.naive_tests));
    Alcotest.test_case "told-equivalent atoms land in one taxonomy class"
      `Quick (fun () ->
        let kb = kb_of "A < B. B < A. A < C. x : A." in
        let e = Session.create kb in
        match Session.taxonomy e with
        | [ ([ "A"; "B" ], [ "C" ]); ([ "C" ], []) ] -> ()
        | tax ->
            Alcotest.failf "unexpected taxonomy: %s"
              (String.concat "; "
                 (List.map
                    (fun (cls, sup) ->
                      "[" ^ String.concat "," cls ^ "]<"
                      ^ String.concat "," sup)
                    tax)))
  ]

(* ------------------------------------------------------------------ *)
(* Verdict cache: identical answers, hits on repeats *)

let cache_verdict_tests =
  [ Alcotest.test_case "cached verdicts equal uncached, hits accrue" `Quick
      (fun () ->
        let kb = gen_kb 9 in
        let signature = Kb4.signature kb in
        let queries =
          List.concat_map
            (fun a ->
              List.map (fun c -> (a, Concept.Atom c)) signature.Axiom.concepts)
            signature.Axiom.individuals
        in
        let t = Para.create kb in
        let cached = Session.create kb in
        let uncached = Session.create ~config:{ Session.default_config with cache_capacity = 0 } kb in
        List.iter
          (fun (a, c) ->
            let expected = Para.instance_truth t a c in
            Alcotest.check tv "cached = Para" expected
              (Para.instance_truth cached a c);
            Alcotest.check tv "uncached = Para" expected
              (Para.instance_truth uncached a c))
          queries;
        let before = (Oracle.cache_stats (Session.oracle cached)).Verdict_cache.hits in
        List.iter
          (fun (a, c) ->
            let expected = Para.instance_truth t a c in
            Alcotest.check tv "repeat run agrees" expected
              (Para.instance_truth cached a c))
          queries;
        let s = Oracle.cache_stats (Session.oracle cached) in
        Alcotest.(check bool) "hits > 0 on repeated queries" true
          (s.Verdict_cache.hits > before);
        Alcotest.(check int) "repeat pass is answered entirely from cache"
          (before + (2 * List.length queries))
          s.Verdict_cache.hits;
        (* uncached engine paid every call *)
        Alcotest.(check int) "uncached pays per query"
          (2 * List.length queries)
          (Oracle.tableau_calls (Session.oracle uncached)));
    Alcotest.test_case "canonically equal queries share one verdict" `Quick
      (fun () ->
        let kb = kb_of "x : A. x : B." in
        let e = Session.create kb in
        ignore (Para.entails_instance e "x" (And (Atom "A", Atom "B")));
        let misses = (Oracle.cache_stats (Session.oracle e)).Verdict_cache.misses in
        ignore (Para.entails_instance e "x" (And (Atom "B", Atom "A")));
        ignore
          (Para.entails_instance e "x"
             (And (Atom "A", And (Atom "B", Atom "A"))));
        let s = Oracle.cache_stats (Session.oracle e) in
        Alcotest.(check int) "no further misses" misses
          s.Verdict_cache.misses;
        Alcotest.(check int) "two hits" 2 s.Verdict_cache.hits)
  ]

(* ------------------------------------------------------------------ *)
(* Realization: agrees with per-individual instance_truth *)

let check_realization ?(label = "") kb =
  let t = Para.create kb in
  let e = Session.create kb in
  let r = Session.realization e in
  List.iter
    (fun (entry : Realize.entry) ->
      List.iter
        (fun (c, v) ->
          Alcotest.check tv
            (Printf.sprintf "%s %s : %s" label entry.Realize.name c)
            (Para.instance_truth t entry.Realize.name (Concept.Atom c))
            v)
        entry.Realize.types)
    r.Realize.entries

let realization_tests =
  [ Alcotest.test_case "paper examples" `Quick (fun () ->
        List.iter
          (fun (label, kb) -> check_realization ~label kb)
          [ ("ex1", Paper_examples.example1);
            ("ex2", Paper_examples.example2);
            ("ex3", Paper_examples.example3);
            ("ex4", Paper_examples.example4) ]);
    Alcotest.test_case "random KBs" `Slow (fun () ->
        List.iter
          (fun seed ->
            check_realization ~label:(Printf.sprintf "seed %d" seed)
              (gen_kb seed))
          [ 5; 6 ]);
    Alcotest.test_case "most-specific types on a chain" `Quick (fun () ->
        let kb = kb_of "A < B. B < C. x : A. y : B." in
        let e = Session.create kb in
        let entry name =
          List.find
            (fun (en : Realize.entry) -> en.Realize.name = name)
            (Session.realization e).Realize.entries
        in
        Alcotest.(check (list string))
          "msc x" [ "A" ] (entry "x").Realize.most_specific;
        Alcotest.(check (list string))
          "msc y" [ "B" ] (entry "y").Realize.most_specific);
    Alcotest.test_case "realization prunes below a refuted concept" `Quick
      (fun () ->
        (* y is told nothing: once y ∉ C is settled, A and B (told below C)
           must not be checked positively *)
        let kb = kb_of "A < B. B < C. x : A. y : D." in
        let e = Session.create kb in
        let r = Session.realization e in
        let s = r.Realize.stats in
        Alcotest.(check bool) "pruned > 0" true (s.Realize.pruned > 0);
        Alcotest.(check bool) "fewer checks than naive" true
          (s.Realize.positive_checks + s.Realize.negative_checks
          < s.Realize.naive_checks))
  ]

let () =
  Alcotest.run "engine"
    [ ("qkey", qkey_tests);
      ("verdict_cache", cache_tests);
      ("classification", classification_tests);
      ("cached_verdicts", cache_verdict_tests);
      ("realization", realization_tests) ]
