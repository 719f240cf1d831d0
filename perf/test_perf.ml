(* The benchmark's own tests: deterministic inputs, the tail rule, a
   ledger that adds up, and the properties each workload exists for. *)

open Perf_harness

let check_true msg b = Alcotest.(check bool) msg true b

let test_inputs_deterministic () =
  let corpus seed =
    String.concat "\n--\n"
      (List.init 4 (fun i ->
           let tab, n = Inputs.tableau_kb ~seed i in
           String.concat "\n"
             [ Inputs.horn_kb ~seed i; tab; Inputs.cq_text ~seed i ~individuals:n;
               Inputs.cold_update ~seed i ~ind:"i" ~con:"C" ~individuals:64
                 ~concepts:Inputs.n_concepts ]))
  in
  let trace seed =
    let kb = Inputs.serve_kb () in
    let warm, reqs = Inputs.serve_trace ~seed kb ~warmup:200 ~measured:2000 in
    kb.Inputs.text
    ^ String.concat "\n"
        (List.map (fun r -> r.Inputs.line) (Array.to_list (Array.append warm reqs)))
  in
  Alcotest.(check string) "same seed, same corpus" (corpus 7) (corpus 7);
  Alcotest.(check string) "same seed, same trace" (trace 7) (trace 7);
  check_true "another seed, another corpus" (corpus 7 <> corpus 8);
  check_true "another seed, another trace" (trace 7 <> trace 8);
  let _, reqs = Inputs.serve_trace ~seed:7 (Inputs.serve_kb ()) ~warmup:0 ~measured:2000 in
  let has k = Array.exists (fun r -> r.Inputs.kind = k) reqs in
  check_true "the trace mixes every request kind"
    (List.for_all has Inputs.[ Query; Cq; Update; Metrics ])

let test_tail_rule () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  let expect n permille value beyond =
    let p, v, b = Stats.tail (List.rev (xs n)) in
    Alcotest.(check int) (Printf.sprintf "percentile of %d" n) permille p;
    Alcotest.(check (float 0.)) (Printf.sprintf "value of %d" n) value v;
    Alcotest.(check int) (Printf.sprintf "beyond of %d" n) beyond b
  in
  (* nearest rank; the highest ladder percentile leaving >= 10 beyond *)
  expect 100 900 90. 10;
  expect 84 880 74. 10;
  expect 1000 990 990. 10;
  expect 16000 999 15984. 16;
  expect 20 500 10. 10;
  Alcotest.(check string) "name" "p99.9" (Stats.percentile_name 999);
  Alcotest.(check string) "name" "p88" (Stats.percentile_name 880)

let test_ledger_adds_up () =
  (* synthetic: op 10 = a 4 (b 1, counted 2) + c 3 + 3 residual *)
  let mk id name parent t0 t1 = { Span.id; name; parent; op = 0; t0; t1 } in
  let spans =
    [ mk 0 "op" (-1) 0. 10.; mk 1 "a" 0 0. 4.; mk 2 "b" 1 0. 1.;
      mk 3 "backend.eval" 1 1. 3.; mk 4 "c" 0 5. 8. ]
  in
  let l = Span.ledger [ spans; spans ] in
  Alcotest.(check (float 1e-9)) "wall" 20. l.Span.wall;
  Alcotest.(check (float 1e-9)) "residual" 6. l.Span.residual;
  Alcotest.(check (float 1e-9)) "a self" 2. (List.assoc "a" l.Span.layers);
  (* a real traced cold op *)
  let inp =
    { Workloads.text = Inputs.horn_kb ~seed:3 0; cq = "";
      update = "+ i1 : C5." }
  in
  let r = Workloads.audit_op ~traced:true ~check:false inp 0 in
  let l = Span.ledger [ r.Workloads.spans ] in
  let total = l.Span.residual +. List.fold_left (fun a (_, s) -> a +. s) 0. l.Span.layers in
  Alcotest.(check (float 1e-9)) "self times + residual = op wall" l.Span.wall total;
  check_true "the root span is the timed op"
    (Float.abs (l.Span.wall -. r.Workloads.wall) < 1e-3);
  check_true "every layer span is present"
    (List.for_all
       (fun n -> List.mem_assoc n l.Span.layers)
       [ "parser.parse"; "engine.session"; "audit.census"; "backend.eval"; "audit.report" ])

let layer o name =
  (List.find (fun mt -> mt.Workloads.name = name) o.Workloads.layers).Workloads.value

let test_workload_properties () =
  let run f = f ~seed:5 ~seconds:1 ~trace:true in
  let audit = run Workloads.audit_horn
  and cq = run Workloads.cq_tableau
  and serve = run Workloads.serve_rw in
  List.iter
    (fun (name, o) ->
      Alcotest.(check int) (name ^ ": no failed op") 0 o.Workloads.failed)
    [ ("audit-horn", audit); ("cq-tableau", cq); ("serve-rw", serve) ];
  Alcotest.(check (float 0.)) "audit-horn never evicts" 0. (layer audit "engine.evictions");
  Alcotest.(check (float 0.)) "cq-tableau never evicts" 0. (layer cq "engine.evictions");
  check_true "serve-rw evicts" (layer serve "engine.evictions" > 0.);
  Alcotest.(check (float 0.)) "audit-horn is all Horn" 1. (layer audit "backend.horn_share");
  Alcotest.(check (float 0.)) "serve-rw is all Horn" 1. (layer serve "backend.horn_share");
  Alcotest.(check (float 0.)) "cq-tableau is all tableau" 0. (layer cq "backend.horn_share");
  check_true "cq-tableau runs the tableau" (layer cq "tableau.runs" > 0.)

let () =
  Alcotest.run "perf"
    [ ( "perf",
        [ Alcotest.test_case "inputs: same seed, same bytes" `Quick
            test_inputs_deterministic;
          Alcotest.test_case "stats: tail rule" `Quick test_tail_rule;
          Alcotest.test_case "span: ledger adds up" `Quick test_ledger_adds_up;
          Alcotest.test_case "workloads: properties hold" `Slow
            test_workload_properties ] ) ]
