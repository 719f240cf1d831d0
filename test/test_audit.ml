(* The audit plane: census ≡ per-fact naive reference (differential,
   over the paper examples, shipped KBs, random in/out-of-fragment KBs
   and both backends), exact-value CQ answers ≡ the naive sweep under
   every planner regime, the dl4-audit/1 report's shape (read back with
   Json_lite), drift records,
   the serve daemon's [audit] op with its cache and drift sink, and the
   KB-health telemetry gauges. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let kb_dir = Filename.concat (Filename.concat ".." "examples") "kb"

let load_example name =
  Surface.parse_kb4_exn (read (Filename.concat kb_dir name))

let tmp name = Filename.temp_file "dl4_audit" name

(* ------------------------------------------------------------------ *)
(* Census differential: batched grids vs the per-fact reference *)

(* a census rendered for comparison: dims + every (fact, value) line *)
let census_lines (cs : Audit.census) =
  Printf.sprintf "individuals=%d concepts=%d role_facts=%d" cs.cs_individuals
    cs.cs_concepts cs.cs_role_facts
  :: List.map
       (fun (f, v) -> Audit.fact_to_string f ^ " = " ^ Truth.to_string v)
       cs.Audit.cs_entries

(* a cold session's probes: oracle verdicts plus cache-served checks *)
let probes s =
  let t = Session.cost_totals s in
  t.Oracle.verdicts + t.Oracle.cache_served

(* [max_probes] bounds the batched census's probes; it runs on a cold
   session, so the count is deterministic *)
let check_census ?(config = Session.default_config) ?max_probes name kb =
  let para = Para.create ~config kb in
  let cs = Audit.census para in
  Option.iter
    (fun bound ->
      let n = probes para in
      checkb (Printf.sprintf "%s: %d census probes <= %g" name n bound) true
        (float_of_int n <= bound))
    max_probes;
  (* a second Para over a fresh session: the naive reference must not
     share the batched sweep's warm cache *)
  let cs_naive = Audit.census_naive (Para.create ~config kb) in
  Alcotest.(check (list string))
    (name ^ "/census = naive") (census_lines cs_naive) (census_lines cs)

let random_kb ~seed ~allow_negation =
  let kb =
    Gen.kb4
      { Gen.default with
        Gen.seed;
        n_concepts = 4;
        n_roles = 2;
        n_individuals = 5;
        n_tbox = 5;
        n_abox = 10;
        max_depth = 2;
        inconsistency_rate = (if allow_negation then 0.3 else 0.0);
        allow_negation }
  in
  if allow_negation then Gen.inject_contradictions ~seed ~count:2 kb else kb

(* 30 Common individuals, every 7th also ~Common, so the census sees
   all of t/f/B/N *)
let common_rare_kb =
  Bench_kb.common_rare ~commons:30 ~poisoned:(fun i -> i mod 7 = 0)

let census_tests =
  List.map
    (fun (name, kb) ->
      Alcotest.test_case name `Quick (fun () -> check_census name kb))
    [ ("example1", Paper_examples.example1);
      ("example2", Paper_examples.example2);
      ("example3", Paper_examples.example3);
      ("example4", Paper_examples.example4) ]
  @ List.map
      (fun file ->
        Alcotest.test_case file `Quick (fun () ->
            check_census file (load_example file)))
      [ "example1.dl4"; "access_control.dl4"; "tweety.dl4"; "branchy.dl4" ]
  @ [ Alcotest.test_case "auto backend" `Quick (fun () ->
          check_census
            ~config:
              { Session.default_config with Session.backend = Backend.Auto }
            "example1/auto" Paper_examples.example1);
      Alcotest.test_case "horn-fragment KB, horn backend" `Quick (fun () ->
          (* EL heads, literal assertions, one contradiction — inside the
             strict completion backend's fragment *)
          let kb =
            Surface.parse_kb4_exn
              "Bird < Fly.\nPenguin < Bird.\ntweety : Penguin.\n\
               tweety : ~Fly.\npolly : Bird.\nhasWing(tweety, w1).\n"
          in
          check_census
            ~config:
              { Session.default_config with Session.backend = Backend.Horn }
            "horn-fragment/horn" kb);
      Alcotest.test_case "random out-of-fragment" `Quick (fun () ->
          check_census "out-of-fragment"
            (random_kb ~seed:42 ~allow_negation:true));
      (* baseline 204 probes, bounded at +5% *)
      Alcotest.test_case "common/rare" `Quick (fun () ->
          check_census ~max_probes:(204. *. 1.05) "common/rare"
            common_rare_kb) ]

(* ------------------------------------------------------------------ *)
(* Derived health numbers on the paper's Example 1: john is the one
   contradiction (Doctor ∧ ¬Doctor), so every number is hand-checkable *)

let health_tests =
  [ Alcotest.test_case "example1 health numbers" `Quick (fun () ->
        let para = Para.create Paper_examples.example1 in
        let cs = Audit.census para in
        checki "B count" 1 (Audit.count cs Truth.Both);
        checkb "decided = t+f+B" true
          (Audit.decided cs
          = Audit.count cs Truth.True + Audit.count cs Truth.False
            + Audit.count cs Truth.Both);
        checkb "ratio = B/decided" true
          (Float.abs
             (Audit.inconsistency_ratio cs
             -. (float_of_int (Audit.count cs Truth.Both)
                /. float_of_int (Audit.decided cs)))
          < 1e-9);
        (match Audit.top_individuals cs ~k:3 with
        | (who, n) :: _ ->
            checks "most contradictory individual" "john" who;
            checki "his contradictions" 1 n
        | [] -> Alcotest.fail "no top individual");
        (match Audit.top_concepts cs ~k:3 with
        | (c, _) :: _ -> checks "most contradicted concept" "Doctor" c
        | [] -> Alcotest.fail "no top concept");
        checkb "per_concept covers every swept concept" true
          (List.length (Audit.per_concept cs) = cs.Audit.cs_concepts));
    Alcotest.test_case "consistent KB has ratio 0" `Quick (fun () ->
        let para =
          Para.create
            (Surface.parse_kb4_exn "john : Doctor.\nmary : Patient.\n")
        in
        let cs = Audit.census para in
        checki "no B" 0 (Audit.count cs Truth.Both);
        checkb "ratio 0" true (Audit.inconsistency_ratio cs = 0.0);
        checkb "no top individuals" true (Audit.top_individuals cs ~k:5 = []))
  ]

(* ------------------------------------------------------------------ *)
(* dl4-audit/1 report shape, read back with Json_lite *)

let parse_json s =
  match Json_lite.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparsable JSON (%s): %s" e s

let jstr name j =
  Option.value ~default:"" (Option.bind (Json_lite.member name j) Json_lite.to_str)

let jnum name j =
  Option.value ~default:Float.nan
    (Option.bind (Json_lite.member name j) Json_lite.to_num)

let report_tests =
  [ Alcotest.test_case "report parses and carries the schema" `Quick
      (fun () ->
        let para = Para.create Paper_examples.example1 in
        let cs = Audit.census para in
        let j = parse_json (Audit.report_json para cs) in
        checks "schema" "dl4-audit/1" (jstr "schema" j);
        let kb = Option.get (Json_lite.member "kb" j) in
        checki "individuals" cs.Audit.cs_individuals
          (int_of_float (jnum "individuals" kb));
        let counts = Option.get (Json_lite.member "counts" j) in
        checki "B" (Audit.count cs Truth.Both)
          (int_of_float (jnum "B" counts));
        checkb "ratio" true
          (Float.abs (jnum "inconsistency_ratio" j -. Audit.inconsistency_ratio cs)
          < 1e-9);
        checkb "per_concept is a list" true
          (Option.bind (Json_lite.member "per_concept" j) Json_lite.to_list
          <> None);
        (* provenance of the top individual names the contradiction *)
        match
          Option.bind (Json_lite.member "top_individuals" j) Json_lite.to_list
        with
        | Some (top :: _) -> checks "top individual" "john" (jstr "individual" top)
        | _ -> Alcotest.fail "no top_individuals array");
    Alcotest.test_case "exactly filter lists the matching facts" `Quick
      (fun () ->
        let para = Para.create Paper_examples.example1 in
        let cs = Audit.census para in
        let j =
          parse_json (Audit.report_json ~exactly:[ Truth.Both ] para cs)
        in
        match Option.bind (Json_lite.member "facts" j) Json_lite.to_list with
        | Some [ f ] ->
            checks "the B fact" "Doctor(john)" (jstr "fact" f);
            checks "its value" "TOP" (jstr "value" f)
        | Some l -> Alcotest.failf "expected 1 fact, got %d" (List.length l)
        | None -> Alcotest.fail "no facts array") ]

(* ------------------------------------------------------------------ *)
(* Exact-value CQ answers: plan path ≡ naive sweep, every regime *)

let answers_t =
  Alcotest.(list (pair (list string) (testable Truth.pp Truth.equal)))

let regimes =
  [ ("cost/adaptive", `Cost, None, None);
    ("cost/nested", `Cost, Some Cq.Plan.Nested_loop, None);
    ("cost/hash", `Cost, Some Cq.Plan.Hash_join, None);
    ("cost/threshold0", `Cost, None, Some 0);
    ("syntactic/adaptive", `Syntactic, None, None);
    ("syntactic/nested", `Syntactic, Some Cq.Plan.Nested_loop, None);
    ("syntactic/hash", `Syntactic, Some Cq.Plan.Hash_join, None) ]

let value_sets =
  [ [ Truth.Both ];
    [ Truth.Neither ];
    [ Truth.Both; Truth.Neither ];
    [ Truth.True ];
    Truth.all ]

let queries_over kb =
  let signature = Kb4.signature kb in
  let concepts = List.sort_uniq String.compare signature.Axiom.concepts in
  let roles = List.sort_uniq String.compare signature.Axiom.roles in
  let inds = signature.Axiom.individuals in
  let c i = Concept.Atom (List.nth concepts (i mod List.length concepts)) in
  let r i = Role.name (List.nth roles (i mod List.length roles)) in
  if concepts = [] || inds = [] then []
  else
    Cq.make ~head:[ "x" ] ~body:[ Cq.Concept_atom (c 0, Cq.Var "x") ]
    :: (if roles = [] then []
        else
          [ Cq.make ~head:[ "x"; "y" ]
              ~body:
                [ Cq.Concept_atom (c 0, Cq.Var "x");
                  Cq.Role_atom (r 0, Cq.Var "x", Cq.Var "y") ] ])

let check_exactly ?(queries = []) name kb =
  let para = Para.create kb in
  List.iter
    (fun q ->
      List.iter
        (fun values ->
          let expected = Cq.answers_exactly_naive para ~values q in
          List.iter
            (fun (regime, order, force, threshold) ->
              let plan = Cq.compile ?threshold ?force ~order para q in
              Alcotest.check answers_t
                (name ^ "/" ^ regime ^ " exactly")
                expected
                (Cq.run_exactly plan ~values))
            regimes)
        value_sets)
    (queries_over kb @ queries)

(* The plan path against the naive sweep on one query and value set,
   each on its own cold session: no verdict has been timed, so the plan
   and both probe counts are deterministic. *)
let check_exact_probes name kb q ~values ~max_plan ~max_naive ~min_ratio =
  let plan_s = Session.create kb in
  let plan_ans = Cq.run_exactly (Cq.compile ~order:`Cost plan_s q) ~values in
  let naive_s = Session.create kb in
  let naive_ans = Cq.answers_exactly_naive naive_s ~values q in
  Alcotest.check answers_t (name ^ "/cold plan = naive") naive_ans plan_ans;
  let p = probes plan_s and n = probes naive_s in
  checkb (Printf.sprintf "%s: %d plan probes <= %g" name p max_plan) true
    (float_of_int p <= max_plan);
  checkb (Printf.sprintf "%s: %d naive probes <= %g" name n max_naive) true
    (float_of_int n <= max_naive);
  checkb
    (Printf.sprintf "%s: naive/plan probes %d/%d >= %g" name n p min_ratio)
    true
    (float_of_int n >= min_ratio *. float_of_int (max 1 p))

let exactly_tests =
  List.map
    (fun (name, kb) ->
      Alcotest.test_case name `Quick (fun () -> check_exactly name kb))
    [ ("example1", Paper_examples.example1);
      ("example3", Paper_examples.example3);
      ("tweety.dl4", load_example "tweety.dl4");
      ("branchy.dl4", load_example "branchy.dl4");
      ("random out-of-fragment", random_kb ~seed:42 ~allow_negation:true) ]
  @ [ Alcotest.test_case "common/rare" `Quick (fun () ->
        let q =
          match Cq.parse "?x, ?y <- Common(?x), links(?x, ?y), Rare(?y)" with
          | Ok q -> q
          | Error e -> Alcotest.fail e
        in
        check_exactly ~queries:[ q ] "common/rare" common_rare_kb;
        (* baselines 4,160 plan and 6,144 naive probes, bounded at +5% *)
        check_exact_probes "common/rare" common_rare_kb q
          ~values:[ Truth.Both; Truth.Neither ] ~max_plan:(4160. *. 1.05)
          ~max_naive:(6144. *. 1.05) ~min_ratio:1.2);
      Alcotest.test_case "example1: john is the exactly-B doctor" `Quick
        (fun () ->
          let para = Para.create Paper_examples.example1 in
          let q =
            Cq.make ~head:[ "x" ]
              ~body:[ Cq.Concept_atom (Concept.Atom "Doctor", Cq.Var "x") ]
          in
          Alcotest.check answers_t "exactly B"
            [ ([ "john" ], Truth.Both) ]
            (Cq.answers_exactly para ~values:[ Truth.Both ] q)) ]

(* ------------------------------------------------------------------ *)
(* Selector atoms: Exact in the body is classical, designated-composable *)

let selector_tests =
  [ Alcotest.test_case "selector atom matches naive through every regime"
      `Quick (fun () ->
        let kb = Paper_examples.example1 in
        let para = Para.create kb in
        let q =
          Cq.make ~head:[ "x" ]
            ~body:
              [ Cq.Exact
                  ([ Truth.Both ], Cq.Concept_atom (Concept.Atom "Doctor", Cq.Var "x"))
              ]
        in
        let expected = Cq.answers_naive para q in
        Alcotest.check answers_t "exactly-B doctor is john"
          [ ([ "john" ], Truth.True) ]
          expected;
        List.iter
          (fun (regime, order, force, threshold) ->
            let plan = Cq.compile ?threshold ?force ~order para q in
            Alcotest.check answers_t ("selector/" ^ regime) expected
              (Cq.run plan))
          regimes);
    Alcotest.test_case "selector composes with a role join" `Quick (fun () ->
        let para = Para.create Paper_examples.example1 in
        let q =
          Cq.make ~head:[ "x"; "y" ]
            ~body:
              [ Cq.Role_atom (Role.name "hasPatient", Cq.Var "x", Cq.Var "y");
                Cq.Exact
                  ( [ Truth.True ],
                    Cq.Concept_atom (Concept.Atom "Patient", Cq.Var "y") ) ]
        in
        let expected = Cq.answers_naive para q in
        List.iter
          (fun (regime, order, force, threshold) ->
            let plan = Cq.compile ?threshold ?force ~order para q in
            Alcotest.check answers_t ("join/" ^ regime) expected (Cq.run plan))
          regimes) ]

(* ------------------------------------------------------------------ *)
(* Parser: the =VALUE / ={V,V} suffix *)

let parse_tests =
  [ Alcotest.test_case "selector suffix parses" `Quick (fun () ->
        match Cq.parse "?x <- Doctor(?x)=B" with
        | Error e -> Alcotest.fail e
        | Ok q -> (
            match q.Cq.body with
            | [ Cq.Exact ([ Truth.Both ], Cq.Concept_atom _) ] -> ()
            | _ -> Alcotest.fail "unexpected parse"));
    Alcotest.test_case "braced multi-value set parses" `Quick (fun () ->
        match Cq.parse "?x <- Doctor(?x)={B,N}, hasPatient(?x, ?y)" with
        | Error e -> Alcotest.fail e
        | Ok q -> (
            match q.Cq.body with
            | [ Cq.Exact (vs, _); Cq.Role_atom _ ] ->
                checkb "B and N" true
                  (List.mem Truth.Both vs && List.mem Truth.Neither vs)
            | _ -> Alcotest.fail "unexpected parse"));
    Alcotest.test_case "selector round-trips through to_string" `Quick
      (fun () ->
        List.iter
          (fun src ->
            match Cq.parse src with
            | Error e -> Alcotest.fail e
            | Ok q -> (
                match Cq.parse (Cq.to_string q) with
                | Error e -> Alcotest.fail e
                | Ok q' ->
                    checks "round-trip" (Cq.to_string q) (Cq.to_string q')))
          [ "?x <- Doctor(?x)=B";
            "?x <- Doctor(?x)={t,f}, hasPatient(?x, ?y)";
            "?y <- hasPatient(?x, ?y)={N}" ]);
    Alcotest.test_case "bad selector suffixes are rejected" `Quick (fun () ->
        List.iter
          (fun src ->
            match Cq.parse src with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail ("expected error for " ^ src))
          [ "?x <- Doctor(?x)={X}";
            "?x <- Doctor(?x)=";
            "?x <- Doctor(?x)={}" ]) ]

(* ------------------------------------------------------------------ *)
(* Drift: diff and the JSONL record *)

let drift_tests =
  [ Alcotest.test_case "a poisoning delta is one t->TOP transition" `Quick
      (fun () ->
        let kb =
          Surface.parse_kb4_exn
            "john : Doctor.\nmary : Patient.\nhasPatient(john, mary).\n"
        in
        let s = Session.create kb in
        let before = Audit.census s in
        (match Delta.parse_script "+ john : ~Doctor.\n" with
        | Ok [ d ] -> ignore (Session.apply s d : Oracle.apply_stats)
        | _ -> Alcotest.fail "delta parse");
        let after = Audit.census s in
        (match Audit.diff before after with
        | [ tr ] ->
            checks "fact" "Doctor(john)" (Audit.fact_to_string tr.Audit.tr_fact);
            checkb "from t" true (tr.Audit.tr_from = Some Truth.True);
            checkb "to TOP" true (tr.Audit.tr_to = Some Truth.Both)
        | trs -> Alcotest.failf "expected 1 transition, got %d" (List.length trs));
        (* the JSONL record *)
        (match
           Audit.drift_line ~trace:"abc123" ~ts_unix:1000.0 ~before ~after ()
         with
        | None -> Alcotest.fail "expected a drift line"
        | Some line ->
            let j = parse_json line in
            checks "trace" "abc123" (jstr "trace" j);
            (match
               Option.bind (Json_lite.member "changed" j) Json_lite.to_list
             with
            | Some [ c ] ->
                checks "fact" "Doctor(john)" (jstr "fact" c);
                checks "from" "t" (jstr "from" c);
                checks "to" "TOP" (jstr "to" c)
            | _ -> Alcotest.fail "expected one changed entry"));
        (* no change, no line *)
        checkb "no-op diff is empty" true (Audit.diff after after = []);
        checkb "no-op drift line is None" true
          (Audit.drift_line ~ts_unix:1000.0 ~before:after ~after () = None)) ]

(* ------------------------------------------------------------------ *)
(* Serve: the audit op, its cache, the drift sink, the KB gauges *)

let parse_resp line =
  match Json_lite.parse line with
  | Ok j -> j
  | Error e -> Alcotest.failf "response is not JSON (%s): %s" e line

let ok j =
  match Json_lite.member "ok" j with
  | Some (Json_lite.Bool b) -> b
  | _ -> false

let jbool name j =
  match Json_lite.member name j with
  | Some (Json_lite.Bool b) -> b
  | _ -> Alcotest.failf "no boolean field %S" name

let read_lines path =
  if not (Sys.file_exists path) then []
  else
    String.split_on_char '\n' (read path)
    |> List.filter (fun l -> String.trim l <> "")

let serve_tests =
  [ Alcotest.test_case "audit op serves the report, cached across requests"
      `Quick (fun () ->
        let t = Serve.create (Session.create Paper_examples.example1) in
        let r1 = parse_resp (Serve.handle t {|{"op":"audit"}|}) in
        checkb "ok" true (ok r1);
        checkb "first census is cold" false (jbool "cached" r1);
        let audit = Option.get (Json_lite.member "audit" r1) in
        checks "schema" "dl4-audit/1" (jstr "schema" audit);
        checki "B count" 1
          (int_of_float
             (jnum "B" (Option.get (Json_lite.member "counts" audit))));
        let r2 = parse_resp (Serve.handle t {|{"op":"audit"}|}) in
        checkb "second census is warm" true (jbool "cached" r2);
        (* an update invalidates the census *)
        let u =
          parse_resp
            (Serve.handle t {|{"op":"update","script":"+ bob : Doctor.\n"}|})
        in
        checkb "update ok" true (ok u);
        let r3 = parse_resp (Serve.handle t {|{"op":"audit"}|}) in
        checkb "census recomputed after update" false (jbool "cached" r3));
    Alcotest.test_case "audit op validates its fields" `Quick (fun () ->
        let t = Serve.create (Session.create Paper_examples.example1) in
        checkb "bad exactly rejected" false
          (ok (parse_resp (Serve.handle t {|{"op":"audit","exactly":"X"}|})));
        checkb "bad top rejected" false
          (ok (parse_resp (Serve.handle t {|{"op":"audit","top":-1}|})));
        let r =
          parse_resp (Serve.handle t {|{"op":"audit","top":1,"exactly":"B"}|})
        in
        checkb "ok" true (ok r);
        let audit = Option.get (Json_lite.member "audit" r) in
        match Option.bind (Json_lite.member "facts" audit) Json_lite.to_list with
        | Some [ f ] -> checks "the B fact" "Doctor(john)" (jstr "fact" f)
        | _ -> Alcotest.fail "expected exactly one B fact");
    Alcotest.test_case "drift sink records a poisoning update" `Quick
      (fun () ->
        let drift = tmp ".drift.jsonl" in
        Sys.remove drift;
        let kb = Surface.parse_kb4_exn "john : Doctor.\n" in
        let t = Serve.create ~drift_log:drift (Session.create kb) in
        let r1 =
          parse_resp
            (Serve.handle t {|{"op":"update","script":"+ john : ~Doctor.\n"}|})
        in
        checkb "update ok" true (ok r1);
        (match read_lines drift with
        | [ line ] ->
            let j = parse_json line in
            checkb "record carries the request trace" true (jstr "trace" j <> "");
            (match
               Option.bind (Json_lite.member "changed" j) Json_lite.to_list
             with
            | Some (_ :: _ as changed) ->
                checkb "Doctor(john) moved to TOP" true
                  (List.exists
                     (fun c ->
                       jstr "fact" c = "Doctor(john)" && jstr "to" c = "TOP")
                     changed)
            | _ -> Alcotest.fail "drift record lists no changes")
        | lines -> Alcotest.failf "expected 1 drift line, got %d" (List.length lines));
        Sys.remove drift);
    Alcotest.test_case "metrics op carries the KB-health object" `Quick
      (fun () ->
        let t = Serve.create (Session.create Paper_examples.example1) in
        ignore (Serve.handle t {|{"op":"audit"}|} : string);
        let r = parse_resp (Serve.handle t {|{"op":"metrics"}|}) in
        checkb "ok" true (ok r);
        let m = Option.get (Json_lite.member "metrics" r) in
        let kb = Option.get (Json_lite.member "kb" m) in
        checkb "individuals gauge" true (jnum "individuals" kb > 0.0);
        let truth = Option.get (Json_lite.member "truth" kb) in
        checki "census B count flows into the gauge" 1
          (int_of_float (jnum "B" truth));
        checkb "ratio present" true
          (not (Float.is_nan (jnum "inconsistency_ratio" kb)))) ]

(* ------------------------------------------------------------------ *)
(* Telemetry gauges: the Prometheus families *)

let telemetry_tests =
  [ Alcotest.test_case "kb gauges render only once set" `Quick (fun () ->
        let tel = Telemetry.create () in
        let contains s sub =
          let n = String.length sub in
          let rec go i =
            i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
          in
          go 0
        in
        let prom0 = Telemetry.prometheus tel in
        checkb "no kb gauges before a snapshot" false
          (contains prom0 "dl4_kb_individuals");
        Telemetry.set_kb_health tel
          { Telemetry.kb_individuals = 3;
            kb_tbox_axioms = 1;
            kb_abox_axioms = 4;
            kb_cached_verdicts = 10;
            kb_truth_counts = [ ("t", 3); ("f", 0); ("B", 1); ("N", 3) ];
            kb_inconsistency_ratio = 0.25 };
        let prom = Telemetry.prometheus tel in
        checkb "individuals gauge" true
          (contains prom "dl4_kb_individuals 3");
        checkb "axioms by box" true
          (contains prom "dl4_kb_axioms{box=\"tbox\"} 1"
          && contains prom "dl4_kb_axioms{box=\"abox\"} 4");
        checkb "truth family" true
          (contains prom "dl4_kb_truth_total{value=\"B\"} 1");
        checkb "ratio gauge" true
          (contains prom "dl4_kb_inconsistency_ratio 0.25");
        checkb "json kb object" true
          (Json_lite.member "kb" (Telemetry.json tel) <> None)) ]

(* ------------------------------------------------------------------ *)
(* Property: the four values partition every decided-or-not fact *)

let prop_partition =
  QCheck.Test.make ~count:20
    ~name:"census values partition the fact space"
    QCheck.(make QCheck.Gen.(int_range 0 1000))
    (fun seed ->
      let kb = random_kb ~seed ~allow_negation:(seed mod 2 = 0) in
      let para = Para.create kb in
      let cs = Audit.census para in
      (* every fact gets exactly one value: the per-value counts sum to
         the sweep size, and each singleton exactly-filter picks out
         exactly the facts carrying that value *)
      List.length cs.Audit.cs_entries
      = List.fold_left (fun acc v -> acc + Audit.count cs v) 0 Truth.all
      && Audit.decided cs
         = Audit.count cs Truth.True + Audit.count cs Truth.False
           + Audit.count cs Truth.Both
      && List.for_all
           (fun (f, v) ->
             List.for_all
               (fun u ->
                 (* membership in a singleton filter iff it is the value *)
                 let selected =
                   List.exists (fun (g, _) -> g = f)
                     (List.filter (fun (_, w) -> Truth.equal w u)
                        cs.Audit.cs_entries)
                 in
                 if Truth.equal u v then selected else true)
               Truth.all)
           cs.Audit.cs_entries)

let prop_exact_partition =
  QCheck.Test.make ~count:20
    ~name:"singleton exact-value answers partition the bindings"
    QCheck.(make QCheck.Gen.(int_range 0 1000))
    (fun seed ->
      let kb = random_kb ~seed ~allow_negation:(seed mod 2 = 0) in
      let para = Para.create kb in
      List.for_all
        (fun q ->
          let whole = Cq.answers_exactly_naive para ~values:Truth.all q in
          let pieces =
            List.concat_map
              (fun v -> Cq.answers_exactly_naive para ~values:[ v ] q)
              Truth.all
          in
          (* same multiset: every tuple appears in exactly one singleton *)
          List.sort compare whole = List.sort compare pieces)
        (queries_over kb))

(* ------------------------------------------------------------------ *)
(* Golden Horn census: the audit-horn benchmark KB for seed 1, op 0 (64
   individuals, 63 role facts, 3 ⊤ facts), its `dl4 audit` report, and
   an MD5 over the provenance of every census verdict — both queries of
   each fact, in census order, one line each.  Report and digest were
   captured before the completion engine memoized its provenance
   regions, so they pin that the memo changes no recorded provenance. *)

let horn_census_digest = "cfc925ba40410dff77ee06b36fa69daa"

let golden name = Filename.concat "golden" name

let census_prov_lines para (cs : Audit.census) =
  let o = Session.oracle para in
  List.concat_map
    (fun (fact, _) ->
      let qs =
        match fact with
        | Audit.Concept_fact (a, c) ->
            [ Oracle.Instance (a, Concept.Atom c);
              Oracle.Not_instance (a, Concept.Atom c) ]
        | Audit.Role_fact (a, r, b) ->
            [ Oracle.Role_pos (a, r, b); Oracle.Role_neg (a, r, b) ]
      in
      List.map
        (fun q ->
          match Oracle.provenance o q with
          | None -> Alcotest.failf "%s: no provenance" (Oracle.query_to_string q)
          | Some e ->
              String.concat "\t"
                [ Oracle.query_to_string q;
                  String.concat " " e.Oracle.individuals;
                  String.concat " " e.Oracle.concepts ])
        qs)
    cs.Audit.cs_entries

let golden_tests =
  [ Alcotest.test_case "horn census: report and provenance digest" `Quick
      (fun () ->
        let kb = Surface.parse_kb4_exn (read (golden "horn_census.dl4")) in
        let para =
          Para.create
            ~config:{ Session.default_config with Session.backend = Backend.Auto }
            kb
        in
        let cs = Audit.census para in
        checks "report = golden"
          (read (golden "horn_census.audit.json"))
          (Audit.report_json para cs ^ "\n");
        let lines = census_prov_lines para cs in
        checki "two verdicts per fact" (2 * List.length cs.Audit.cs_entries)
          (List.length lines);
        checks "provenance digest" horn_census_digest
          (Digest.to_hex (Digest.string (String.concat "\n" lines ^ "\n"))));
    Alcotest.test_case "horn census: over-capacity caches agree" `Quick
      (fun () ->
        (* a census through a cache smaller than its verdict count evicts
           as it goes; values and the report must not notice.
           [~top:0] leaves out [top_individuals], whose provenance union
           depends on which verdicts are still resident *)
        let kb = Surface.parse_kb4_exn (read (golden "horn_census.dl4")) in
        let census capacity =
          let para =
            Para.create
              ~config:
                { Session.default_config with
                  Session.backend = Backend.Auto;
                  cache_capacity = capacity }
              kb
          in
          (para, Audit.census para)
        in
        let p0, cs0 = census Session.default_config.Session.cache_capacity in
        List.iter
          (fun capacity ->
            let p, cs = census capacity in
            let name = Printf.sprintf "capacity %d" capacity in
            let evictions =
              (Oracle.cache_stats (Session.oracle p)).Verdict_cache.evictions
            in
            checkb (name ^ ": the census evicted") true (evictions > 0);
            Alcotest.(check (list string))
              (name ^ ": entries") (census_lines cs0) (census_lines cs);
            checks (name ^ ": report")
              (Audit.report_json ~top:0 p0 cs0)
              (Audit.report_json ~top:0 p cs))
          [ 64; 1024 ]) ]

let () =
  Alcotest.run "audit"
    [ ("census-differential", census_tests);
      ("golden", golden_tests);
      ("health", health_tests);
      ("report-json", report_tests);
      ("exact-cq-differential", exactly_tests);
      ("selector-atoms", selector_tests);
      ("parse", parse_tests);
      ("drift", drift_tests);
      ("serve", serve_tests);
      ("telemetry", telemetry_tests);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_partition;
         QCheck_alcotest.to_alcotest prop_exact_partition ]) ]
