(* dl4 serve: the NDJSON protocol, in-process and over a real socket.

   [Serve.handle] is the whole protocol (the socket loop only shuttles
   bytes), so most cases drive it directly; one case forks an actual
   daemon on a scratch socket and talks to it through [Serve.request],
   which is what `dl4 client` and the CI smoke test use. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Response parsing *)

let parse_resp line =
  match Json_lite.parse line with
  | Ok j -> j
  | Error e -> Alcotest.failf "response is not JSON (%s): %s" e line

let mem name j =
  match Json_lite.member name j with
  | Some v -> v
  | None -> Alcotest.failf "response lacks field %S" name

let str name j =
  Option.value ~default:"" (Json_lite.to_str (mem name j))

let int_field name j =
  int_of_float (Option.value ~default:Float.nan (Json_lite.to_num (mem name j)))

let ok j =
  match mem "ok" j with
  | Json_lite.Bool b -> b
  | _ -> Alcotest.fail "ok is not a boolean"

let cost_tableau_calls j = int_field "tableau_calls" (mem "cost" j)

let warm_server ?access_log () =
  let s = Session.create Paper_examples.example3 in
  let p = Para.of_session s in
  ignore (Para.satisfiable p : bool);
  ignore (Para.contradictions p : (string * string) list);
  ignore (Session.classification s : Classify.t);
  Serve.create ?access_log s

let ask t line = parse_resp (Serve.handle t line)

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_lines path =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' (read path))

let contains ~sub s =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let example1 () =
  Surface.parse_kb4_exn (read (Filename.concat ".." "examples/kb/example1.dl4"))

(* ------------------------------------------------------------------ *)
(* In-process protocol *)

let protocol_tests =
  [ Alcotest.test_case "check on a warm session is free" `Quick (fun () ->
        let access = Filename.temp_file "dl4_serve_test" ".access.jsonl" in
        let t = warm_server ~access_log:access () in
        let r = ask t {|{"op":"check","id":"c1"}|} in
        checkb "ok" true (ok r);
        checks "id echoed" "c1" (str "id" r);
        checkb "consistent" true
          (match mem "consistent" r with Json_lite.Bool b -> b | _ -> false);
        checki "zero tableau calls" 0 (cost_tableau_calls r);
        (* a numeric id goes back as the request wrote it, in the
           response and in the access-log line *)
        let ids = [ "1234567.891"; "12345678901234567"; "1e20"; "-0"; "2.5" ] in
        List.iter
          (fun id ->
            let resp =
              Serve.handle t (Printf.sprintf {|{"op":"check","id":%s}|} id)
            in
            checkb ("response echoes " ^ id) true
              (String.starts_with ~prefix:(Printf.sprintf {|{"id":%s,|} id)
                 resp))
          ids;
        Serve.sync t;
        (match read_lines access with
        | c1 :: lines when List.length lines = List.length ids ->
            checkb "access line echoes c1" true (contains ~sub:{|,"id":"c1",|} c1);
            List.iter2
              (fun id line ->
                checkb ("access line echoes " ^ id) true
                  (contains ~sub:(Printf.sprintf {|,"id":%s,|} id) line))
              ids lines
        | lines ->
            Alcotest.failf "expected %d access-log lines, got %d"
              (List.length ids + 1) (List.length lines));
        Sys.remove access);
    Alcotest.test_case "second identical query is zero-tableau-call" `Quick
      (fun () ->
        let t = warm_server () in
        let q =
          {|{"op":"query","individual":"tweety","concept":"Fly"}|}
        in
        let r1 = ask t q in
        let r2 = ask t q in
        checkb "both ok" true (ok r1 && ok r2);
        checks "same truth" (str "truth" r1) (str "truth" r2);
        checki "warm query pays nothing" 0 (cost_tableau_calls r2);
        (* the envelope's cache counters moved: the warm query was hits *)
        checkb "served from cache" true
          (int_field "cache_served" (mem "cost" r2) > 0));
    Alcotest.test_case "retrieve and classify answer" `Quick (fun () ->
        let t = warm_server () in
        let r = ask t {|{"op":"retrieve","concept":"Bird"}|} in
        checkb "retrieve ok" true (ok r);
        checkb "has instances" true
          (match mem "instances" r with
          | Json_lite.Arr (_ :: _) -> true
          | _ -> false);
        let c = ask t {|{"op":"classify"}|} in
        checkb "classify ok" true (ok c);
        checkb "has taxonomy" true
          (match mem "taxonomy" c with
          | Json_lite.Arr (_ :: _) -> true
          | _ -> false));
    Alcotest.test_case "update applies a delta and queries see it" `Quick
      (fun () ->
        let t = warm_server () in
        let r =
          ask t {|{"op":"update","script":"+ tweety : Sings.\n"}|}
        in
        checkb "update ok" true (ok r);
        checki "one delta applied" 1 (int_field "applied" r);
        let q =
          ask t {|{"op":"query","individual":"tweety","concept":"Sings"}|}
        in
        checks "new fact is told true" "t" (str "truth" q));
    Alcotest.test_case "cq query answers with a plan summary; plans cached"
      `Quick (fun () ->
        let t = warm_server () in
        let q = {|{"op":"query","cq":"?x <- Bird(?x)"}|} in
        let r1 = ask t q in
        checkb "ok" true (ok r1);
        checks "cq echoed" "?x <- Bird(?x)" (str "cq" r1);
        let tuples j =
          match mem "answers" j with
          | Json_lite.Arr rows ->
              List.filter_map
                (fun row ->
                  match Json_lite.member "tuple" row with
                  | Some (Json_lite.Arr [ Json_lite.Str a ]) -> Some a
                  | _ -> None)
                rows
          | _ -> Alcotest.fail "answers is not an array"
        in
        checkb "tweety answers Bird(?x)" true (List.mem "tweety" (tuples r1));
        let cached j =
          match Json_lite.member "cached" (mem "plan" j) with
          | Some (Json_lite.Bool b) -> b
          | _ -> Alcotest.fail "plan.cached is not a boolean"
        in
        checkb "first shape compiles fresh" false (cached r1);
        checks "plan order" "cost" (str "order" (mem "plan" r1));
        checkb "strategies object present" true
          (match Json_lite.member "strategies" (mem "plan" r1) with
          | Some (Json_lite.Obj _) -> true
          | _ -> false);
        let r2 = ask t q in
        checkb "second shape served from the plan cache" true (cached r2);
        checkb "same answers from the cached plan" true
          (tuples r1 = tuples r2);
        (* an update invalidates the cached plans *)
        let u = ask t {|{"op":"update","script":"+ woody : Bird.\n"}|} in
        checkb "update ok" true (ok u);
        let r3 = ask t q in
        checkb "post-update shape recompiles" false (cached r3);
        checkb "new individual answers" true (List.mem "woody" (tuples r3)));
    Alcotest.test_case "update parse errors quote the offending line" `Quick
      (fun () ->
        let t = warm_server () in
        let r =
          ask t {|{"op":"update","script":"+ tweety : Sings.\nbogus stuff\n"}|}
        in
        checkb "not ok" true (not (ok r));
        let e = str "error" r in
        let contains sub =
          let n = String.length e and m = String.length sub in
          let rec go i = i + m <= n && (String.sub e i m = sub || go (i + 1)) in
          go 0
        in
        checkb "line number named" true (contains "line 2");
        checkb "offending text quoted" true (contains "bogus stuff"));
    Alcotest.test_case "malformed requests do not kill the server" `Quick
      (fun () ->
        let t = warm_server () in
        let bads =
          [ "this is not json";
            {|{"no_op_field":1}|};
            {|{"op":"nope"}|};
            {|{"op":"query","individual":"tweety"}|};
            {|{"op":"query","individual":"tweety","concept":"(((("}|};
            {|{"op":"update","script":42}|}
          ]
        in
        List.iter
          (fun bad ->
            let r = ask t bad in
            checkb (Printf.sprintf "%s -> ok:false" bad) true (not (ok r));
            checkb "carries an error message" true (String.length (str "error" r) > 0))
          bads;
        checkb "server not stopped" true (not (Serve.stopped t));
        (* and the very next request still works *)
        checkb "still serving" true (ok (ask t {|{"op":"check"}|})));
    Alcotest.test_case "a limit trip fails one request, the next answers"
      `Quick (fun () ->
        (* on Example 3 both runs of this query (told true, told false)
           explore 5 branches each, the consistency run at most 2 *)
        let s =
          Session.create
            ~config:{ Session.default_config with max_branches = 3 }
            Paper_examples.example3
        in
        let t = Serve.create s in
        let o = Session.oracle s in
        let size () = (Oracle.cache_stats o).Verdict_cache.size in
        let size0 = size () and totals0 = Session.cost_totals s in
        let calls0 = Oracle.tableau_calls o in
        let r =
          ask t
            {|{"op":"query","individual":"tweety","concept":"(A1 & B1 | A2 & B2 | A3 & B3 | A4 & B4) & ~(C1 & D1 | C2 & D2 | C3 & D3 | C4 & D4)"}|}
        in
        checkb "the tripping request fails" false (ok r);
        checks "typed error" "resource limit: branch limit 3 exceeded"
          (str "error" r);
        checki "nothing cached" size0 (size ());
        checkb "cost totals unchanged" true (Session.cost_totals s = totals0);
        checki "the attempt is counted" (calls0 + 1) (Oracle.tableau_calls o);
        let r = ask t {|{"op":"check"}|} in
        checkb "the next request answers" true (ok r);
        checki "with one tableau call" 1 (cost_tableau_calls r));
    Alcotest.test_case "an update that trips leaves no stale verdict" `Quick
      (fun () ->
        (* the delta's Horn rebuild needs more than three contexts and
           trips after K and K̄ were edited: the update is rolled back, so
           the KB is the pre-update one and b and c are still unknown *)
        let kb0 = Surface.parse_kb4_exn "A < B.\na : A.\n" in
        let s =
          Session.create
            ~config:
              { Session.default_config with backend = Backend.Auto; max_nodes = 3 }
            kb0
        in
        let t = Serve.create s in
        let q = {|{"op":"query","individual":"b","concept":"B"}|} in
        checks "b is unknown" "BOT" (str "truth" (ask t q));
        let r = ask t {|{"op":"update","script":"+ b : A.\n+ c : A."}|} in
        checkb "the update fails" false (ok r);
        checkb "with a resource limit" true
          (String.starts_with ~prefix:"resource limit: " (str "error" r));
        checkb "saying it was not applied" true
          (String.ends_with ~suffix:"; the update was not applied"
             (str "error" r));
        checkb "the KB is the pre-update one" true (Session.kb s = kb0);
        checks "b : B answers the pre-update KB" "BOT" (str "truth" (ask t q));
        checks "so does c : B" "BOT"
          (str "truth"
             (ask t {|{"op":"query","individual":"c","concept":"B"}|}));
        checkb "the audit answers" true (ok (ask t {|{"op":"audit"}|})));
    Alcotest.test_case "an update whose consistency probe trips keeps nothing"
      `Quick (fun () ->
        (* b's new assertion makes K 4-unsatisfiable, but refuting it
           takes one run 14 branches: the post-delta probe trips, so the
           update is rolled back whole — the KB is the pre-update one,
           a's verdict answers it, and the taxonomy and the census answer
           as before *)
        let kb0 = Surface.parse_kb4_exn "a : A.\n" in
        let s =
          Session.create
            ~config:{ Session.default_config with max_branches = 8 }
            kb0
        in
        let t = Serve.create s in
        let q = {|{"op":"query","individual":"a","concept":"B"}|} in
        checks "a : B is unknown" "BOT" (str "truth" (ask t q));
        let classify = {|{"op":"classify"}|} and audit = {|{"op":"audit"}|} in
        checkb "classified" true (ok (ask t classify));
        checkb "audited" true (ok (ask t audit));
        let r =
          ask t
            {|{"op":"update","script":"+ b : (X1 | Y1) & (X2 | Y2) & (X3 | Y3) & ((>= 1 r) | Bottom) & (only r.Bottom)."}|}
        in
        checks "the update trips"
          "resource limit: branch limit 8 exceeded; the update was not applied"
          (str "error" r);
        checkb "the KB is the pre-update one" true (Session.kb s = kb0);
        checks "a : B answers the pre-update KB" "BOT" (str "truth" (ask t q));
        checkb "the taxonomy answers" true (ok (ask t classify));
        checkb "the census answers" true (ok (ask t audit)));
    Alcotest.test_case "a horn-pinned update that leaves the fragment is refused"
      `Quick (fun () ->
        let kb = example1 () in
        let s =
          Session.create
            ~config:{ Session.default_config with backend = Backend.Horn }
            kb
        in
        let t = Serve.create s in
        let q = {|{"op":"query","individual":"john","concept":"Doctor"}|} in
        checks "john : Doctor" "TOP" (str "truth" (ask t q));
        let r = ask t {|{"op":"update","script":"+ Doctor < Patient | Nurse."}|} in
        checks "a typed refusal"
          "horn backend: non-Horn disjunction on the right; axiom: Doctor+ << \
           Patient+ | Nurse+.; the update was not applied"
          (str "error" r);
        checkb "the KB is the pre-update one" true (Session.kb s = kb);
        checkb "check answers" true (ok (ask t {|{"op":"check"}|}));
        checks "the query answers the pre-update KB" "TOP"
          (str "truth" (ask t q)));
    Alcotest.test_case "stats reports request and call counters" `Quick
      (fun () ->
        let t = warm_server () in
        ignore (ask t {|{"op":"check"}|});
        let r = ask t {|{"op":"stats"}|} in
        checkb "ok" true (ok r);
        checki "requests counted" 2 (int_field "requests" r);
        checkb "totals present" true
          (match mem "totals" r with Json_lite.Obj _ -> true | _ -> false));
    Alcotest.test_case "snapshot op writes a loadable snapshot" `Quick
      (fun () ->
        let t = warm_server () in
        let path = Filename.temp_file "dl4_serve_test" ".snap" in
        let r =
          ask t
            (Printf.sprintf {|{"op":"snapshot","path":"%s"}|} path)
        in
        checkb "ok" true (ok r);
        (match Store.load path with
        | Ok snap ->
            checkb "snapshot holds the served KB" true
              (snap.Store.s_kb = Paper_examples.example3)
        | Error e -> Alcotest.failf "saved snapshot: %s" (Store.error_to_string e));
        Sys.remove path);
    Alcotest.test_case "shutdown flips the stop flag" `Quick (fun () ->
        let t = warm_server () in
        checkb "running" true (not (Serve.stopped t));
        let r = ask t {|{"op":"shutdown"}|} in
        checkb "ok" true (ok r);
        checkb "stopped" true (Serve.stopped t)) ]

(* ------------------------------------------------------------------ *)
(* Golden transcript: a fixed request script through [Serve.handle] on a
   cold example1.dl4 session, every response byte-compared with the
   trace IDs and the timing fields masked.  Multi-atom CQs are left out
   (once a verdict is paid, the planner orders atoms by observed wall
   times, so their plans vary from run to run), and so is the metrics op
   (its buckets are timings). *)

let golden_script =
  [ {|{"op":"check","id":"c1"}|};
    {|{"op":"query","id":7,"individual":"john","concept":"Doctor"}|};
    {|{"op":"query","id":2.5,"individual":"john","concept":"Patient"}|};
    {|{"op":"query","id":"q\"uo\\te","cq":"?x <- Doctor(?x)"}|};
    {|{"op":"query","id":-0,"cq":"?x <- Doctor(?x)={B}"}|};
    {|{"op":"check","id":"\u0001\t\u00e9"}|};
    {|{"op":"retrieve","concept":"Doctor","all":true}|};
    {|{"op":"retrieve","concept":"Patient & ~Doctor"}|};
    {|{"op":"classify"}|};
    {|{"op":"audit","top":3,"exactly":"B"}|};
    {|{"op":"audit"}|};
    {|{"op":"stats"}|};
    {|{"op":"update","script":"+ mary : ~Patient."}|};
    {|{"op":"update","script":"+ bob : Doctor.\n- mary : ~Patient."}|};
    {|{"op":"audit","id":1e20}|};
    {|{"op":"bogus","id":"x\ny"}|};
    {|garbage|};
    {|{"no_op":1}|};
    {|{"op":"query","individual":"john"}|};
    {|{"op":"query","individual":"john","concept":"(((("}|};
    {|{"op":"update","script":"nonsense"}|};
    {|{"op":"snapshot"}|};
    {|{"op":"audit","top":-1}|};
    {|{"op":"audit","exactly":"Q"}|};
    {|{"op":"shutdown"}|} ]

let mask =
  let re =
    Str.regexp
      {|"\(trace_id\|wall_ns\|uptime_s\)":\("[0-9a-f]*"\|[-0-9.e+]+\)|}
  in
  Str.global_replace re {|"\1":"*"|}

let golden_tests =
  [ Alcotest.test_case "example1 transcript = golden" `Quick (fun () ->
        let t = Serve.create (Session.create (example1 ())) in
        let transcript =
          String.concat ""
            (List.map
               (fun line -> "> " ^ line ^ "\n< " ^ mask (Serve.handle t line) ^ "\n")
               golden_script)
        in
        checks "transcript" (read "golden/serve_example1.txt") transcript) ]

(* ------------------------------------------------------------------ *)
(* A real daemon on a scratch socket *)

(* the first response of a daemon coming up on [socket_path] *)
let await_daemon socket_path =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec await () =
    match Serve.request ~socket_path {|{"op":"check"}|} with
    | resp -> resp
    | exception Unix.Unix_error _ ->
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "daemon did not come up"
        else begin
          Unix.sleepf 0.05;
          await ()
        end
  in
  await ()

let socket_tests =
  [ Alcotest.test_case "forked daemon serves and shuts down" `Quick (fun () ->
        let socket_path = Filename.temp_file "dl4_serve_test" ".sock" in
        match Unix.fork () with
        | 0 ->
            (* child: build the warm session and serve until shutdown.
               _exit, not exit: the test runner's at_exit hooks belong
               to the parent *)
            let t = warm_server () in
            (try Serve.run ~socket_path t with _ -> ());
            Unix._exit 0
        | pid ->
            let check_resp = parse_resp (await_daemon socket_path) in
            checkb "daemon consistent" true (ok check_resp);
            let q = {|{"op":"query","individual":"tweety","concept":"Fly"}|} in
            let r1 = parse_resp (Serve.request ~socket_path q) in
            let r2 = parse_resp (Serve.request ~socket_path q) in
            checkb "query ok over the wire" true (ok r1 && ok r2);
            checki "second query zero tableau calls" 0 (cost_tableau_calls r2);
            (* a malformed line must not take the daemon down *)
            let bad = parse_resp (Serve.request ~socket_path "garbage") in
            checkb "malformed -> structured error" true (not (ok bad));
            let again = parse_resp (Serve.request ~socket_path {|{"op":"check"}|}) in
            checkb "daemon survived" true (ok again);
            let bye = parse_resp (Serve.request ~socket_path {|{"op":"shutdown"}|}) in
            checkb "shutdown acked" true (ok bye);
            let _, status = Unix.waitpid [] pid in
            checkb "daemon exited cleanly" true (status = Unix.WEXITED 0);
            checkb "socket file removed" true (not (Sys.file_exists socket_path)));
    Alcotest.test_case "a daemon outlives its scrape file's directory" `Quick
      (fun () ->
        let socket_path = Filename.temp_file "dl4_serve_test" ".sock" in
        let dir = Filename.temp_dir "dl4_serve_test" ".metrics" in
        let metrics_out = Filename.concat dir "m.prom" in
        let access = Filename.temp_file "dl4_serve_test" ".access.jsonl" in
        match Unix.fork () with
        | 0 -> (
            let t = warm_server ~access_log:access () in
            match
              Serve.run ~metrics_out ~metrics_interval:0.05 ~socket_path t
            with
            | () -> Unix._exit 0
            | exception _ -> Unix._exit 1)
        | pid ->
            checkb "daemon up" true (ok (parse_resp (await_daemon socket_path)));
            checkb "scrape file written" true (Sys.file_exists metrics_out);
            (* the daemon may recreate m.prom.tmp between the removals *)
            let rec remove_dir k =
              Array.iter
                (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
                (Sys.readdir dir);
              try Sys.rmdir dir with Sys_error _ when k > 0 -> remove_dir (k - 1)
            in
            remove_dir 100;
            (* several metrics ticks fail to write *)
            Unix.sleepf 0.3;
            let r = parse_resp (Serve.request ~socket_path {|{"op":"check"}|}) in
            checkb "still answering" true (ok r);
            let bye = parse_resp (Serve.request ~socket_path {|{"op":"shutdown"}|}) in
            checkb "shutdown acked" true (ok bye);
            let _, status = Unix.waitpid [] pid in
            checkb "daemon exited cleanly" true (status = Unix.WEXITED 0);
            checkb "socket file removed" true (not (Sys.file_exists socket_path));
            checki "every request in the access log" 3
              (List.length (read_lines access));
            Sys.remove access) ]

let () =
  Alcotest.run "serve"
    [ ("protocol", protocol_tests);
      ("golden", golden_tests);
      ("socket", socket_tests) ]
