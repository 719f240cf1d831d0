(* PR 8: the request-telemetry plane.

   - the Telemetry registry: per-op accounting, merge, renderers
   - trace-ID propagation: one serve request's ID is visible in the
     response envelope, the returned cost object, the oracle's retained
     cost record, the eval span attrs, the slow-query log line and the
     access-log line
   - the rotating access log round-trips through Json_lite
   - client timeouts against a wedged (never-answering) socket *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let parse line =
  match Json_lite.parse line with
  | Ok j -> j
  | Error e -> Alcotest.failf "not JSON (%s): %s" e line

let mem name j =
  match Json_lite.member name j with
  | Some v -> v
  | None -> Alcotest.failf "lacks field %S" name

let str name j = Option.value ~default:"" (Json_lite.to_str (mem name j))

let num name j =
  Option.value ~default:Float.nan (Json_lite.to_num (mem name j))

let tmp name = Filename.temp_file "dl4_telemetry" name

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let warm_server ?telemetry ?access_log ?access_log_max_bytes
    ?(kb = Paper_examples.example3) () =
  let s = Session.create kb in
  ignore (Para.satisfiable s : bool);
  Serve.create ?telemetry ?access_log ?access_log_max_bytes s

(* ------------------------------------------------------------------ *)
(* Registry *)

let registry_tests =
  [ Alcotest.test_case "record accumulates per op" `Quick (fun () ->
        let t = Telemetry.create () in
        Telemetry.record t ~op:"query" ~ok:true ~wall_ns:1000.0
          ~routes:[ ("horn", 2) ] ~cache_served:3 ();
        Telemetry.record t ~op:"query" ~ok:false ~wall_ns:5000.0
          ~routes:[ ("tableau", 1) ] ();
        Telemetry.record t ~op:"check" ~ok:true ~wall_ns:10.0 ();
        checki "total requests" 3 (Telemetry.requests t);
        checki "total errors" 1 (Telemetry.errors t);
        match Telemetry.view t with
        | [ chk; qry ] ->
            checks "sorted by op" "check" chk.Telemetry.v_op;
            checki "query requests" 2 qry.Telemetry.v_requests;
            checki "query errors" 1 qry.Telemetry.v_errors;
            checkb "both routes counted" true
              (qry.Telemetry.v_routes = [ ("horn", 2); ("tableau", 1) ]);
            checki "cache served" 3 qry.Telemetry.v_cache_served;
            checki "two buckets filled" 2
              (List.length qry.Telemetry.v_buckets)
        | l -> Alcotest.failf "expected 2 ops, got %d" (List.length l));
    Alcotest.test_case "json rendering round-trips through Json_lite" `Quick
      (fun () ->
        let t = Telemetry.create () in
        Telemetry.record t ~op:"query" ~ok:true ~wall_ns:4096.0
          ~routes:[ ("horn", 1) ] ~cache_served:2 ~tableau_calls:0 ();
        let j = parse (Json_lite.to_string (Telemetry.json t)) in
        checks "schema" "dl4-metrics/1" (str "schema" j);
        checkb "uptime >= 0" true (num "uptime_s" j >= 0.0);
        match Json_lite.to_list (mem "ops" j) with
        | Some [ op ] ->
            checks "op name" "query" (str "op" op);
            checkb "p50 estimate in the right bucket" true
              (let p50 = num "p50_ns" op in
               p50 >= 4096.0 && p50 <= 8192.0);
            checkb "routes object" true
              (match Json_lite.member "routes" op with
              | Some (Json_lite.Obj [ ("horn", Json_lite.Num 1.0) ]) -> true
              | _ -> false)
        | _ -> Alcotest.fail "ops is not a 1-element array") ]

(* ------------------------------------------------------------------ *)
(* Prometheus exposition *)

let prom_tests =
  [ Alcotest.test_case "exposition has cumulative monotone buckets" `Quick
      (fun () ->
        let t = Telemetry.create () in
        (* three observations across two buckets *)
        Telemetry.record t ~op:"query" ~ok:true ~wall_ns:1000.0 ();
        Telemetry.record t ~op:"query" ~ok:true ~wall_ns:1100.0 ();
        Telemetry.record t ~op:"query" ~ok:true ~wall_ns:70000.0 ();
        let text = Telemetry.prometheus t in
        let bucket_counts =
          List.filter_map
            (fun line ->
              let prefix = "dl4_request_duration_seconds_bucket" in
              if
                String.length line > String.length prefix
                && String.sub line 0 (String.length prefix) = prefix
              then
                match String.rindex_opt line ' ' with
                | Some i ->
                    float_of_string_opt
                      (String.sub line (i + 1) (String.length line - i - 1))
                | None -> None
              else None)
            (String.split_on_char '\n' text)
        in
        checkb "at least 3 bucket samples (2 + Inf)" true
          (List.length bucket_counts >= 3);
        let rec monotone prev = function
          | [] -> true
          | v :: rest -> v >= prev && monotone v rest
        in
        checkb "cumulative counts are monotone" true
          (monotone 0.0 bucket_counts);
        checkb "last bucket (+Inf) holds all observations" true
          (List.rev bucket_counts |> List.hd = 3.0);
        checkb "count sample present" true
          (List.exists
             (fun l ->
               l = "dl4_request_duration_seconds_count{op=\"query\"} 3")
             (String.split_on_char '\n' text)));
    Alcotest.test_case "label escaping" `Quick (fun () ->
        checks "backslash" "a\\\\b" (Telemetry.label_escape "a\\b");
        checks "quote" "say \\\"hi\\\"" (Telemetry.label_escape "say \"hi\"");
        checks "newline" "x\\ny" (Telemetry.label_escape "x\ny");
        let t = Telemetry.create () in
        Telemetry.record t ~op:"we\"ird\\op" ~ok:true ~wall_ns:10.0 ();
        let text = Telemetry.prometheus t in
        checkb "escaped op label appears" true
          (let needle = "op=\"we\\\"ird\\\\op\"" in
           let rec find i =
             i + String.length needle <= String.length text
             && (String.sub text i (String.length needle) = needle
                || find (i + 1))
           in
           find 0));
    Alcotest.test_case "planner strategy counters flow to every renderer"
      `Quick (fun () ->
        let t = Telemetry.create () in
        Telemetry.record t ~op:"query" ~ok:true ~wall_ns:1000.0
          ~strategies:[ ("hash_join", 2); ("nested_loop", 1) ] ();
        Telemetry.record t ~op:"query" ~ok:true ~wall_ns:1000.0
          ~strategies:[ ("hash_join", 1) ] ();
        let qry =
          List.find (fun v -> v.Telemetry.v_op = "query") (Telemetry.view t)
        in
        checkb "view accumulates per strategy" true
          (qry.Telemetry.v_strategies
          = [ ("hash_join", 3); ("nested_loop", 1) ]);
        let j = parse (Json_lite.to_string (Telemetry.json t)) in
        (match Json_lite.to_list (mem "ops" j) with
        | Some [ op ] ->
            checkb "json strategies object" true
              (match Json_lite.member "strategies" op with
              | Some
                  (Json_lite.Obj
                    [
                      ("hash_join", Json_lite.Num 3.0);
                      ("nested_loop", Json_lite.Num 1.0);
                    ]) ->
                  true
              | _ -> false)
        | _ -> Alcotest.fail "ops is not a 1-element array");
        let text = Telemetry.prometheus t in
        let lines = String.split_on_char '\n' text in
        checkb "prometheus hash_join sample" true
          (List.mem
             "dl4_planner_strategy_total{op=\"query\",strategy=\"hash_join\"} 3"
             lines);
        checkb "prometheus nested_loop sample" true
          (List.mem
             "dl4_planner_strategy_total{op=\"query\",strategy=\"nested_loop\"} 1"
             lines));
    Alcotest.test_case "atomic write leaves no tmp file" `Quick (fun () ->
        let t = Telemetry.create () in
        Telemetry.record t ~op:"check" ~ok:true ~wall_ns:42.0 ();
        let path = tmp ".prom" in
        Telemetry.write_prometheus t path;
        checkb "exposition written" true (Sys.file_exists path);
        checkb "tmp renamed away" true (not (Sys.file_exists (path ^ ".tmp")));
        Sys.remove path) ]

(* ------------------------------------------------------------------ *)
(* Trace-ID propagation: one request, one ID, visible everywhere *)

let propagation_tests =
  [ Alcotest.test_case
      "response, cost record, span, slow log and access log share the ID"
      `Quick (fun () ->
        let slow = tmp ".slow.jsonl" and access = tmp ".access.jsonl" in
        Sys.remove slow;
        Sys.remove access;
        Obs.arm_slow_log ~threshold_ms:0.0 slow;
        Obs.set_enabled true;
        Obs.reset ();
        let t = warm_server ~access_log:access () in
        let resp =
          Fun.protect
            ~finally:(fun () ->
              Obs.set_enabled false;
              Obs.disarm_slow_log ())
            (fun () ->
              (* uncached conjunction: forces a computed verdict so a
                 cost record and slow-log line exist *)
              Serve.handle t
                {|{"op":"query","individual":"tweety","concept":"Fly & Penguin"}|})
        in
        Serve.sync t;
        let j = parse resp in
        let tid = str "trace_id" j in
        checkb "response carries a trace id" true (tid <> "");
        checks "cost object repeats the id" tid (str "trace_id" (mem "cost" j));
        (* the oracle retained the computed verdicts' cost records *)
        let costs = Session.costs (Serve.session t) in
        let tagged =
          List.filter (fun c -> c.Oracle.c_trace = tid) costs
        in
        checkb "a retained cost record carries the id" true (tagged <> []);
        (* the eval spans carry it as an attr *)
        let spans = Obs.spans () in
        checkb "an oracle.eval span carries the id" true
          (List.exists
             (fun r ->
               r.Obs.r_name = "oracle.eval"
               && List.mem ("trace_id", tid) r.Obs.r_attrs)
             spans);
        (* the slow log (threshold 0) has lines with the id *)
        let slow_hits =
          List.filter
            (fun line -> str "trace_id" (parse line) = tid)
            (read_lines slow)
        in
        checkb "slow-log lines carry the id" true (slow_hits <> []);
        (* the slow-log line names its backend route (satellite: the
           serializer keeps c_backend) *)
        List.iter
          (fun line ->
            let b = str "backend" (parse line) in
            checkb "slow-log line names a backend" true
              (b = "tableau" || b = "horn"))
          slow_hits;
        (* the access log's single line is the same request *)
        (match read_lines access with
        | [ line ] ->
            let a = parse line in
            checks "access-log line carries the id" tid (str "trace_id" a);
            checks "op" "query" (str "op" a);
            checks "outcome" "ok" (str "outcome" a);
            checkb "wall_ns positive" true (num "wall_ns" a > 0.0);
            checkb "routes counted" true
              (match Json_lite.member "routes" a with
              | Some (Json_lite.Obj (_ :: _)) -> true
              | _ -> false)
        | l -> Alcotest.failf "expected 1 access-log line, got %d"
                 (List.length l));
        Sys.remove slow;
        Sys.remove access);
    Alcotest.test_case "flight events record the installed id" `Quick
      (fun () ->
        Flight.reset ();
        Obs.with_trace_id "feedcafe00000001" (fun () ->
            Flight.record "test" 1 2 "hello");
        let dump = parse (Flight.dump ()) in
        let domains =
          Option.value ~default:[] (Json_lite.to_list (mem "domains" dump))
        in
        let events =
          List.concat_map
            (fun d ->
              Option.value ~default:[] (Json_lite.to_list (mem "events" d)))
            domains
        in
        checkb "the event carries trace" true
          (List.exists
             (fun e ->
               (match Json_lite.member "trace" e with
               | Some (Json_lite.Str "feedcafe00000001") -> true
               | _ -> false)
               && str "kind" e = "test")
             events);
        Flight.reset ());
    Alcotest.test_case "horn-backend verdicts carry the installed id" `Quick
      (fun () ->
        (* regression: the completion-engine route must stamp [c_trace]
           exactly like the tableau route does *)
        let kb =
          Surface.parse_kb4_exn
            "Bird < Fly.\nPenguin < Bird.\ntweety : Penguin.\n"
        in
        let s =
          Session.create
            ~config:
              { Session.default_config with Session.backend = Backend.Horn }
            kb
        in
        let tid = "feedcafe00000002" in
        Obs.with_trace_id tid (fun () ->
            ignore (Para.instance_truth s "tweety" (Concept.Atom "Fly")
                    : Truth.t));
        let horn =
          List.filter
            (fun c -> c.Oracle.c_backend = "horn")
            (Session.costs s)
        in
        checkb "horn computed the verdicts" true (horn <> []);
        checkb "every horn cost record carries the id" true
          (List.for_all (fun c -> c.Oracle.c_trace = tid) horn));
    Alcotest.test_case "every request gets a distinct id" `Quick (fun () ->
        let t = warm_server () in
        let id1 = str "trace_id" (parse (Serve.handle t {|{"op":"check"}|})) in
        let id2 = str "trace_id" (parse (Serve.handle t {|{"op":"check"}|})) in
        checkb "non-empty" true (id1 <> "" && id2 <> "");
        checkb "distinct" true (id1 <> id2));
    Alcotest.test_case "disarmed telemetry mints no ids" `Quick (fun () ->
        let s = Session.create Paper_examples.example3 in
        let t = Serve.create ~telemetry:false s in
        let j = parse (Serve.handle t {|{"op":"check"}|}) in
        checkb "no trace_id in envelope" true
          (Json_lite.member "trace_id" j = None);
        checkb "metrics op refused" true
          (match Json_lite.member "ok" (parse (Serve.handle t {|{"op":"metrics"}|})) with
          | Some (Json_lite.Bool false) -> true
          | _ -> false);
        (* bench S11's KB: a disarmed and an armed daemon answer its
           atomic grid alike, and the armed one logs the requests *)
        let kb = Bench_kb.s9 () in
        let sg = Kb4.signature kb in
        let grid t =
          List.concat_map
            (fun a ->
              List.map
                (fun c ->
                  str "truth"
                    (parse
                       (Serve.handle t
                          (Printf.sprintf
                             {|{"op":"query","individual":"%s","concept":"%s"}|}
                             a c))))
                sg.Axiom.concepts)
            sg.Axiom.individuals
        in
        let access = tmp ".access.jsonl" in
        let armed = warm_server ~access_log:access ~kb () in
        Alcotest.(check (list string))
          "armed answers = disarmed answers"
          (grid (warm_server ~telemetry:false ~kb ()))
          (grid armed);
        Serve.sync armed;
        let lines = List.length (read_lines access) in
        checkb
          (Printf.sprintf "%d access-log lines >= 1" lines)
          true (lines >= 1);
        Sys.remove access) ]

(* ------------------------------------------------------------------ *)
(* Serve metrics plane: the metrics/stats ops and the access log *)

let serve_tests =
  [ Alcotest.test_case "metrics op returns the registry" `Quick (fun () ->
        let t = warm_server () in
        ignore (Serve.handle t {|{"op":"query","individual":"tweety","concept":"Bird"}|});
        let j = parse (Serve.handle t {|{"op":"metrics"}|}) in
        checkb "ok" true
          (match mem "ok" j with Json_lite.Bool b -> b | _ -> false);
        let m = mem "metrics" j in
        checks "schema" "dl4-metrics/1" (str "schema" m);
        checkb "query op accounted" true
          (match Json_lite.to_list (mem "ops" m) with
          | Some ops ->
              List.exists (fun op -> str "op" op = "query") ops
          | None -> false));
    Alcotest.test_case "stats reports uptime and per-op counters" `Quick
      (fun () ->
        let t = warm_server () in
        ignore (Serve.handle t {|{"op":"check"}|});
        ignore (Serve.handle t {|{"op":"nope"}|});
        let j = parse (Serve.handle t {|{"op":"stats"}|}) in
        checkb "uptime_s >= 0" true (num "uptime_s" j >= 0.0);
        let ops = mem "ops" j in
        checki "check requests" 1 (int_of_float (num "requests" (mem "check" ops)));
        checki "unknown op errors counted" 1
          (int_of_float (num "errors" (mem "unknown" ops))));
    Alcotest.test_case "malformed and unknown ops are labeled, not raw"
      `Quick (fun () ->
        let t = warm_server () in
        ignore (Serve.handle t "this is not json");
        ignore (Serve.handle t {|{"op":"evil{}op"}|});
        match Serve.telemetry t with
        | None -> Alcotest.fail "telemetry should be armed by default"
        | Some tel ->
            let names =
              List.map (fun v -> v.Telemetry.v_op) (Telemetry.view tel)
            in
            checkb "malformed label" true (List.mem "malformed" names);
            checkb "unknown label" true (List.mem "unknown" names);
            checkb "raw op string never becomes a label" true
              (not (List.mem "evil{}op" names)));
    Alcotest.test_case "access log rotates at the size threshold" `Quick
      (fun () ->
        let access = tmp ".access.jsonl" in
        Sys.remove access;
        let t = warm_server ~access_log:access ~access_log_max_bytes:1024 () in
        for _ = 1 to 32 do
          ignore (Serve.handle t {|{"op":"check"}|})
        done;
        Serve.sync t;
        checkb "rotated file exists" true (Sys.file_exists (access ^ ".1"));
        checkb "live file exists" true (Sys.file_exists access);
        (* one rotated generation is kept; every surviving line in both
           generations is complete JSON (rotation never splits a line) *)
        let all = read_lines (access ^ ".1") @ read_lines access in
        checkb "rotation trimmed the live file" true
          (List.length (read_lines access) < 32);
        checkb "some lines survive" true (all <> []);
        List.iter (fun l -> ignore (parse l)) all;
        Sys.remove access;
        Sys.remove (access ^ ".1"));
    Alcotest.test_case "client timeout against a wedged socket" `Quick
      (fun () ->
        (* a listener that accepts no connection: connect succeeds
           (backlog), the response never comes, SO_RCVTIMEO fires *)
        let path = tmp ".sock" in
        Sys.remove path;
        let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind srv (Unix.ADDR_UNIX path);
        Unix.listen srv 1;
        let t0 = Unix.gettimeofday () in
        (match Serve.request ~timeout_ms:200 ~socket_path:path {|{"op":"check"}|} with
        | _ -> Alcotest.fail "request against a wedged daemon returned"
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _)
          ->
            let dt = Unix.gettimeofday () -. t0 in
            checkb "timed out promptly" true (dt < 5.0));
        Unix.close srv;
        Sys.remove path) ]

let () =
  Alcotest.run "telemetry"
    [ ("registry", registry_tests);
      ("prometheus", prom_tests);
      ("trace-propagation", propagation_tests);
      ("serve-plane", serve_tests) ]
