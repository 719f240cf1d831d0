(* PR 5 diagnostics: quantile estimation over the Obs log2 buckets, the
   flight recorder's ring semantics and dump format, the slow-query
   JSONL log, per-verdict cost accounting and the gauges round-trip;
   and the Json_lite printer every JSON document goes through. *)

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_obs_state enabled f =
  let saved = Obs.enabled () in
  Obs.set_enabled enabled;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled saved)
    f

let tmp_path suffix =
  let p = Filename.temp_file "dl4_diag" suffix in
  at_exit (fun () -> try Sys.remove p with Sys_error _ -> ());
  p

let json_of_string s =
  match Json_lite.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "JSON parse error: %s" e

let mem name j =
  match Json_lite.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing member %S" name

let num j =
  match Json_lite.to_num j with
  | Some x -> x
  | None -> Alcotest.fail "expected a number"

let arr j =
  match j with Json_lite.Arr l -> l | _ -> Alcotest.fail "expected an array"

(* ------------------------------------------------------------------ *)
(* Quantile estimation over log2 buckets *)

let close msg expected got =
  if Float.abs (expected -. got) > 1e-9 *. Float.max 1.0 (Float.abs expected)
  then Alcotest.failf "%s: expected %g, got %g" msg expected got

let quantile_tests =
  [ Alcotest.test_case "empty histogram has no quantile" `Quick (fun () ->
        Alcotest.(check bool)
          "nan on empty" true
          (Float.is_nan (Obs.quantile_of_buckets [] 0.5)));
    Alcotest.test_case "exact at bucket boundaries" `Quick (fun () ->
        (* all mass in bucket 3 = [8, 16): q=0 and q=1 are the exact
           bucket bounds, q=0.5 the midpoint under linear interpolation *)
        let b = [ (3, 10) ] in
        close "q=0" 8.0 (Obs.quantile_of_buckets b 0.0);
        close "q=1" 16.0 (Obs.quantile_of_buckets b 1.0);
        close "q=0.5" 12.0 (Obs.quantile_of_buckets b 0.5);
        (* mass split across buckets 2 and 4: the median rank falls on
           the cumulative boundary between them, which is exactly the
           upper edge of bucket 2 *)
        let b = [ (2, 5); (4, 5) ] in
        close "cumulative boundary" 8.0 (Obs.quantile_of_buckets b 0.5);
        (* bucket 0 is [0, 2) *)
        close "bucket0 lower edge" 0.0 (Obs.quantile_of_buckets [ (0, 4) ] 0.0);
        close "bucket0 upper edge" 2.0 (Obs.quantile_of_buckets [ (0, 4) ] 1.0));
    Alcotest.test_case "within factor 2 inside a bucket" `Quick (fun () ->
        with_obs_state true (fun () ->
            (* durations drawn from several buckets; the estimator only
               sees counts, so each estimated quantile must stay within
               the true value's bucket: [true/2, true*2] is implied *)
            let h = Obs.histogram "test.diag.q" in
            let samples =
              List.concat_map
                (fun base -> List.init 10 (fun i -> base +. float_of_int i))
                [ 10.0; 100.0; 1000.0; 10000.0 ]
            in
            List.iter (Obs.observe_ns h) samples;
            let sorted = List.sort compare samples in
            let n = List.length sorted in
            List.iter
              (fun q ->
                (* a rank exactly on a cumulative boundary is ambiguous
                   between the elements on either side, so accept the
                   factor-2 envelope around both neighbours *)
                let rank = int_of_float (q *. float_of_int n) in
                let lo_truth = List.nth sorted (max 0 (rank - 1)) in
                let hi_truth = List.nth sorted (min (n - 1) rank) in
                let est = Obs.quantile_ns h q in
                if est < lo_truth /. 2.0 || est > hi_truth *. 2.0 then
                  Alcotest.failf
                    "q=%g: estimate %g not within factor 2 of true [%g, %g]" q
                    est lo_truth hi_truth)
              [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99 ]));
    Alcotest.test_case "quantiles of a real workload histogram" `Quick
      (fun () ->
        with_obs_state true (fun () ->
            let t = Para.create Paper_examples.example1 in
            ignore (Para.contradictions t);
            let runs =
              List.find_opt
                (fun (n, _, _) -> n = "tableau.run_ns")
                (Obs.histograms ())
            in
            match runs with
            | None -> Alcotest.fail "tableau.run_ns not recorded"
            | Some (_, count, _) ->
                Alcotest.(check bool) "runs recorded" true (count > 0);
                let h = Obs.histogram "tableau.run_ns" in
                let p50 = Obs.quantile_ns h 0.5
                and p99 = Obs.quantile_ns h 0.99 in
                Alcotest.(check bool) "p50 positive" true (p50 > 0.0);
                Alcotest.(check bool) "p99 >= p50" true (p99 >= p50))) ]

(* ------------------------------------------------------------------ *)
(* Flight recorder *)

let flight_tests =
  [ Alcotest.test_case "ring wraps and dump stays well-formed" `Quick
      (fun () ->
        Flight.reset ();
        let n = Flight.capacity + 137 in
        for i = 1 to n do
          Flight.record "test.ev" i (-1) (string_of_int i)
        done;
        let j = json_of_string (Flight.dump ()) in
        Alcotest.(check string)
          "schema" Flight.schema
          (Option.value ~default:"" (Json_lite.to_str (mem "schema" j)));
        Alcotest.(check int) "dump reports the depth" Flight.capacity
          (int_of_float (num (mem "capacity" j)));
        let doms = arr (mem "domains" j) in
        Alcotest.(check int) "one ring" 1 (List.length doms);
        let d = List.hd doms in
        Alcotest.(check int) "total" n (int_of_float (num (mem "total" d)));
        Alcotest.(check int)
          "dropped" (n - Flight.capacity)
          (int_of_float (num (mem "dropped" d)));
        let events = arr (mem "events" d) in
        Alcotest.(check int) "retained = capacity" Flight.capacity
          (List.length events);
        (* oldest-first: the first retained event is the (dropped+1)-th
           recorded one, and ns never decreases *)
        let first = List.hd events in
        Alcotest.(check string)
          "oldest retained" (string_of_int (n - Flight.capacity + 1))
          (Option.value ~default:"" (Json_lite.to_str (mem "note" first)));
        let _ =
          List.fold_left
            (fun prev e ->
              let ns = num (mem "ns" e) in
              if ns < prev then Alcotest.fail "ns not monotone";
              ns)
            neg_infinity events
        in
        Flight.reset ());
    Alcotest.test_case "partial ring dumps only recorded events" `Quick
      (fun () ->
        Flight.reset ();
        Flight.record "a" 1 2 "x";
        Flight.record "b" 3 4 "y";
        let j = json_of_string (Flight.dump ()) in
        let d = List.hd (arr (mem "domains" j)) in
        let events = arr (mem "events" d) in
        Alcotest.(check int) "two events" 2 (List.length events);
        Alcotest.(check int) "no dropped" 0
          (int_of_float (num (mem "dropped" d)));
        Flight.reset ());
    Alcotest.test_case "trip writes an armed dump" `Quick (fun () ->
        let path = tmp_path ".flight.json" in
        Flight.reset ();
        Flight.arm ~path ();
        Flight.record "before" 0 0 "";
        Flight.trip "test trip";
        Flight.disarm ();
        let j = json_of_string (read path) in
        let d = List.hd (arr (mem "domains" j)) in
        let kinds =
          List.map
            (fun e ->
              Option.value ~default:"" (Json_lite.to_str (mem "kind" e)))
            (arr (mem "events" d))
        in
        Alcotest.(check bool) "trip event present" true
          (List.mem "trip" kinds);
        Flight.reset ());
    Alcotest.test_case "tableau hooks feed the recorder when armed" `Quick
      (fun () ->
        Flight.reset ();
        Flight.arm ();
        let t = Para.create Paper_examples.example1 in
        ignore (Para.satisfiable t);
        Flight.disarm ();
        Alcotest.(check bool)
          "events recorded" true
          (Flight.events_recorded () > 0);
        let j = json_of_string (Flight.dump ()) in
        let d = List.hd (arr (mem "domains" j)) in
        let kinds =
          List.map
            (fun e ->
              Option.value ~default:"" (Json_lite.to_str (mem "kind" e)))
            (arr (mem "events" d))
        in
        Alcotest.(check bool) "run.start seen" true
          (List.mem "run.start" kinds);
        Flight.reset ());
    Alcotest.test_case "disarmed recorder stays silent" `Quick (fun () ->
        Flight.disarm ();
        Flight.reset ();
        let t = Para.create Paper_examples.example1 in
        ignore (Para.satisfiable t);
        Alcotest.(check int) "no events" 0 (Flight.events_recorded ());
        Flight.reset ()) ]

(* ------------------------------------------------------------------ *)
(* Slow-query log *)

let slow_tests =
  [ Alcotest.test_case "threshold gates: disarmed means infinity" `Quick
      (fun () ->
        Alcotest.(check bool) "disarmed" false (Obs.slow_log_armed ());
        Alcotest.(check bool)
          "infinite threshold" true
          (Obs.slow_threshold_ms () = Float.infinity));
    Alcotest.test_case "slow verdicts land as parseable JSONL" `Quick
      (fun () ->
        let path = tmp_path ".slow.jsonl" in
        Sys.remove path;
        Obs.arm_slow_log ~threshold_ms:0.0 path;
        Fun.protect ~finally:Obs.disarm_slow_log (fun () ->
            let t = Para.create Paper_examples.example1 in
            ignore (Para.contradictions t));
        let lines =
          String.split_on_char '\n' (read path)
          |> List.filter (fun l -> String.trim l <> "")
        in
        Alcotest.(check bool) "records written" true (List.length lines > 0);
        List.iter
          (fun line ->
            let j = json_of_string line in
            Alcotest.(check bool) "wall_ms >= 0" true
              (num (mem "wall_ms" j) >= 0.0);
            Alcotest.(check bool)
              "query non-empty" true
              (Option.value ~default:"" (Json_lite.to_str (mem "query" j))
              <> "");
            ignore (mem "rules" j);
            ignore (mem "individuals" j);
            ignore (mem "cache_stored" j))
          lines);
    Alcotest.test_case "threshold above the workload writes nothing" `Quick
      (fun () ->
        let path = tmp_path ".slow.jsonl" in
        Sys.remove path;
        Obs.arm_slow_log ~threshold_ms:1e9 path;
        Fun.protect ~finally:Obs.disarm_slow_log (fun () ->
            let t = Para.create Paper_examples.example1 in
            ignore (Para.contradictions t));
        Alcotest.(check bool)
          "no file or empty" true
          ((not (Sys.file_exists path)) || String.trim (read path) = "")) ]

(* ------------------------------------------------------------------ *)
(* Per-verdict cost accounting *)

let cost_tests =
  [ Alcotest.test_case "computed verdicts carry cost records" `Quick
      (fun () ->
        let o = Oracle.of_config Oracle.default_config Paper_examples.example1 in
        let q = Oracle.Instance ("john", Concept.Atom "Doctor") in
        ignore (Oracle.check o q);
        (match Oracle.cost o q with
        | None -> Alcotest.fail "no cost recorded"
        | Some c ->
            Alcotest.(check bool) "runs >= 1" true
              (c.Oracle.c_work.Tableau.runs >= 1);
            Alcotest.(check bool) "wall >= 0" true (c.Oracle.c_wall_ns >= 0.0);
            Alcotest.(check int) "no hits yet" 0 c.Oracle.c_hits;
            Alcotest.(check string) "kind" "instance" c.Oracle.c_kind);
        ignore (Oracle.check o q);
        (match Oracle.cost o q with
        | None -> Alcotest.fail "cost lost on hit"
        | Some c -> Alcotest.(check int) "hit counted" 1 c.Oracle.c_hits);
        let totals = Oracle.cost_totals o in
        Alcotest.(check bool) "verdicts counted" true (totals.Oracle.verdicts >= 1);
        Alcotest.(check bool) "served counted" true
          (totals.Oracle.cache_served >= 1));
    Alcotest.test_case "costs sorted by wall time" `Quick (fun () ->
        let t = Para.create Paper_examples.example1 in
        ignore (Para.contradictions t);
        let cs = Oracle.costs (Session.oracle t) in
        Alcotest.(check bool) "non-empty" true (cs <> []);
        let _ =
          List.fold_left
            (fun prev (c : Oracle.cost) ->
              if c.Oracle.c_wall_ns > prev then
                Alcotest.fail "not sorted descending";
              c.Oracle.c_wall_ns)
            infinity cs
        in
        ());
    Alcotest.test_case "capacity 0: totals survive, per-key does not" `Quick
      (fun () ->
        let o = Oracle.of_config { Oracle.default_config with Oracle.cache_capacity = 0 } Paper_examples.example1 in
        let q = Oracle.Instance ("john", Concept.Atom "Doctor") in
        ignore (Oracle.check o q);
        ignore (Oracle.check o q);
        Alcotest.(check bool) "no per-key record" true (Oracle.cost o q = None);
        Alcotest.(check int) "no records" 0 (List.length (Oracle.costs o));
        let totals = Oracle.cost_totals o in
        Alcotest.(check int) "both misses computed" 2 totals.Oracle.verdicts;
        Alcotest.(check int) "nothing served" 0 totals.Oracle.cache_served);
    Alcotest.test_case "deltas drop per-key costs, keep totals" `Quick
      (fun () ->
        let s = Session.create Paper_examples.example1 in
        let p = Para.of_session s in
        ignore (Para.contradictions p);
        let before = (Session.cost_totals s).Oracle.verdicts in
        Alcotest.(check bool) "work done" true (before > 0);
        let d =
          { Delta.add_abox = [ Axiom.Instance_of ("zz", Concept.Atom "Doctor") ];
            retract_abox = [];
            add_tbox = [] }
        in
        ignore (Session.apply s d);
        Alcotest.(check bool)
          "totals survive the delta" true
          ((Session.cost_totals s).Oracle.verdicts >= before);
        (* retained verdicts keep their cost records: both lists match *)
        Alcotest.(check bool)
          "records track retained verdicts" true
          (List.length (Session.costs s)
          = List.length (Oracle.provenances (Session.oracle s)))) ]

(* ------------------------------------------------------------------ *)
(* Registry folded from the stats cells: with Obs on, every tableau.*
   work counter equals the reasoner's cell after a run ends, normally or
   by a resource-limit trip. *)

let registry_matches_cells label (st : Tableau.stats) =
  let count name = Obs.count (Obs.counter name) in
  let check name cell =
    Alcotest.(check int) (label ^ " " ^ name) cell (count name)
  in
  check "tableau.runs" st.Tableau.runs;
  check "tableau.nodes_created" st.Tableau.nodes_created;
  check "tableau.merges" st.Tableau.merges;
  check "tableau.branches" st.Tableau.branches_explored;
  check "tableau.backtracks" st.Tableau.backtracks;
  check "tableau.blocking_events" st.Tableau.blocking_events;
  Array.iteri
    (fun i r -> check ("tableau.rule." ^ r) st.Tableau.rule_firings.(i))
    Tableau.rule_names;
  Array.iteri
    (fun i c -> check ("tableau.clash." ^ c) st.Tableau.clash_causes.(i))
    Tableau.clash_names;
  Alcotest.(check int)
    (label ^ " clash causes sum to clashes")
    st.Tableau.clashes
    (Array.fold_left
       (fun acc c -> acc + count ("tableau.clash." ^ c))
       0 Tableau.clash_names)

let tableau_session ?(max_branches = max_int) kb =
  Session.create
    ~config:
      { Session.default_config with
        Session.backend = Backend.Tableau;
        max_branches }
    kb

let cells s = Reasoner.stats (Oracle.reasoner (Session.oracle s))

let branchy () =
  Surface.parse_kb4_exn
    (read (Filename.concat (Filename.concat ".." "examples") "kb/branchy.dl4"))

let registry_tests =
  [ Alcotest.test_case "tableau counters equal the stats cells" `Quick
      (fun () ->
        with_obs_state true (fun () ->
            let s = tableau_session Paper_examples.example1 in
            let p = Para.of_session s in
            ignore (Para.satisfiable p : bool);
            ignore (Para.contradictions p : (string * string) list);
            ignore (Session.classification s : Classify.t);
            let st = cells s in
            Alcotest.(check bool) "runs happened" true (st.Tableau.runs > 0);
            Alcotest.(check bool) "clashes happened" true
              (st.Tableau.clashes > 0);
            registry_matches_cells "example1" st));
    Alcotest.test_case "counters equal the cells after a branch-limit trip"
      `Quick (fun () ->
        with_obs_state true (fun () ->
            (* branchy.dl4's largest single run explores 8 branches *)
            let s = tableau_session ~max_branches:5 (branchy ()) in
            let p = Para.of_session s in
            (match
               ignore (Para.satisfiable p : bool);
               ignore (Para.contradictions p : (string * string) list)
             with
            | () -> Alcotest.fail "branchy.dl4 did not trip max_branches"
            | exception Tableau.Resource_limit _ -> ());
            let st = cells s in
            Alcotest.(check bool) "the trip explored branches" true
              (st.Tableau.branches_explored > 5);
            registry_matches_cells "branchy" st));
    Alcotest.test_case "the branch budget is per run, not per session"
      `Quick (fun () ->
        (* the contradiction grid pays dozens of runs whose branches add
           up far past 50, while no single run explores more than 8 *)
        let s = tableau_session ~max_branches:50 (branchy ()) in
        Alcotest.(check bool) "satisfiable" true (Para.satisfiable s);
        Alcotest.(check (list (pair string string)))
          "contradictions" [ ("hub", "Hot") ] (Para.contradictions s);
        Alcotest.(check bool) "the runs explored more than one budget" true
          ((cells s).Tableau.branches_explored > 50)) ]

(* ------------------------------------------------------------------ *)
(* Gauges and registry round-trips *)

let gauge_tests =
  [ Alcotest.test_case "gauges round-trip through metrics_json" `Quick
      (fun () ->
        with_obs_state true (fun () ->
            let g = Obs.gauge "test.diag.gauge" in
            Obs.set_gauge g 42.5;
            Alcotest.(check bool)
              "gauges () sees it" true
              (List.mem_assoc "test.diag.gauge" (Obs.gauges ()));
            close "gauges () value" 42.5
              (List.assoc "test.diag.gauge" (Obs.gauges ()));
            let j = json_of_string (Obs.metrics_json ()) in
            close "metrics_json value" 42.5 (num (mem "test.diag.gauge" j))));
    Alcotest.test_case "oracle cache-size gauge tracks the cache" `Quick
      (fun () ->
        with_obs_state true (fun () ->
            let o = Oracle.of_config Oracle.default_config Paper_examples.example1 in
            ignore (Oracle.check o Oracle.Consistent);
            let g = List.assoc_opt "oracle.cache.size" (Obs.gauges ()) in
            match g with
            | None -> Alcotest.fail "oracle.cache.size not registered"
            | Some v -> Alcotest.(check bool) "positive" true (v >= 1.0)));
    Alcotest.test_case "delta counters reach the registry" `Quick (fun () ->
        with_obs_state true (fun () ->
            let s = Session.create Paper_examples.example1 in
            ignore (Para.satisfiable (Para.of_session s));
            let d =
              { Delta.add_abox =
                  [ Axiom.Instance_of ("zz", Concept.Atom "Doctor") ];
                retract_abox = [];
                add_tbox = [] }
            in
            ignore (Session.apply s d);
            let c =
              List.assoc_opt "oracle.delta.applied" (Obs.counters ())
            in
            Alcotest.(check (option int)) "one delta" (Some 1) c)) ]

(* ------------------------------------------------------------------ *)
(* The JSON printer: every document dl4 writes goes through it *)

let json_tests =
  let str = Alcotest.(check string) in
  [ Alcotest.test_case "escaping" `Quick (fun () ->
        str "the two-character escapes" {|q\"b\\n\nr\rt\t|}
          (Json_lite.escape "q\"b\\n\nr\rt\t");
        str "other control bytes as lowercase \\u00XX"
          {|\u0000\u0001\u001f\u000b|}
          (Json_lite.escape "\000\001\031\011");
        str "DEL and UTF-8 pass through" "\127é" (Json_lite.escape "\127é");
        let b = Buffer.create 8 in
        Buffer.add_string b "x:";
        Json_lite.escape_into b "a\"";
        str "escape_into appends" {|x:a\"|} (Buffer.contents b));
    Alcotest.test_case "numbers on both sides of the integer rule" `Quick
      (fun () ->
        List.iter
          (fun (f, want) -> str (Printf.sprintf "%h" f) want (Json_lite.number f))
          [ (0., "0"); (-0., "-0"); (1., "1"); (-42., "-42");
            (999_999_999_999_999., "999999999999999");
            (-999_999_999_999_999., "-999999999999999");
            (1e15, "1e+15"); (-1e15, "-1e+15"); (1e20, "1e+20");
            (0.5, "0.5"); (2.5, "2.5"); (0.25, "0.25");
            (1. /. 3., "0.333333"); (1234567.5, "1.23457e+06");
            (1e-7, "1e-07"); (Float.nan, "nan"); (Float.infinity, "inf") ];
        (* integral values print exactly as "%.0f" prints them *)
        List.iter
          (fun f -> str "integral" (Printf.sprintf "%.0f" f) (Json_lite.number f))
          [ 7.; -7.; 1e9; -123456789012345.; 999_999_999_999_998. ]);
    Alcotest.test_case "compact, members in list order" `Quick (fun () ->
        str "document"
          {|{"b":1,"a":null,"b":[true,false,"s",{},[]],"":-3.5}|}
          (Json_lite.to_string
             (Json_lite.Obj
                [ ("b", Json_lite.int 1);
                  ("a", Json_lite.Null);
                  ( "b",
                    Json_lite.Arr
                      [ Json_lite.Bool true; Json_lite.Bool false;
                        Json_lite.Str "s"; Json_lite.Obj []; Json_lite.Arr [] ] );
                  ("", Json_lite.Num (-3.5)) ]));
        let b = Buffer.create 8 in
        Buffer.add_char b '[';
        Json_lite.to_buffer b (Json_lite.Str "k\"ey");
        str "to_buffer appends" {|["k\"ey"|} (Buffer.contents b)) ]

(* parse (to_string v) = Ok v for values whose numbers are integral (the
   number rule keeps six significant digits of the rest) and whose
   strings and keys are arbitrary bytes *)
let prop_json_round_trip =
  let open QCheck.Gen in
  let bytes = string_size ~gen:char (int_bound 12) in
  let leaf =
    oneof
      [ return Json_lite.Null;
        map (fun b -> Json_lite.Bool b) bool;
        map Json_lite.int (int_range (-1_000_000_000) 1_000_000_000);
        map (fun s -> Json_lite.Str s) bytes ]
  in
  let value =
    sized_size (int_bound 4)
    @@ fix (fun self n ->
           if n = 0 then leaf
           else
             frequency
               [ (2, leaf);
                 ( 1,
                   map (fun l -> Json_lite.Arr l)
                     (list_size (int_bound 4) (self (n - 1))) );
                 ( 1,
                   map (fun l -> Json_lite.Obj l)
                     (list_size (int_bound 4) (pair bytes (self (n - 1)))) ) ])
  in
  QCheck.Test.make ~count:500 ~name:"parse inverts to_string"
    (QCheck.make ~print:Json_lite.to_string value)
    (fun v -> Json_lite.parse (Json_lite.to_string v) = Ok v)

let () =
  Alcotest.run "diag"
    [ ("quantiles", quantile_tests);
      ("flight", flight_tests);
      ("slow_log", slow_tests);
      ("costs", cost_tests);
      ("registry", registry_tests);
      ("gauges", gauge_tests);
      ( "json",
        json_tests @ [ QCheck_alcotest.to_alcotest prop_json_round_trip ] ) ]
