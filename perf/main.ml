(* The benchmark's command line:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints a human-readable report, then — as its last line — one JSON
   object: {"correct", "attempted", "failed", "metrics"}, where metrics
   are the end-to-end set (--trace 0) or the per-layer set (--trace 1).
   Exits 1 when an answer check failed. *)

open Perf_harness

let workloads =
  [ ("audit-horn", Workloads.audit_horn); ("cq-tableau", Workloads.cq_tableau);
    ("serve-rw", Workloads.serve_rw) ]

let json_number x = if Float.is_integer x then Printf.sprintf "%.0f" x else Printf.sprintf "%.17g" x

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME one of audit-horn, cq-tableau, serve-rw");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured time to size the run for");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe [options]";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        Printf.eprintf "unknown workload %S (expected one of: %s)\n" !workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  let traced = !trace = 1 in
  let o = run ~seed:!seed ~seconds:(max 1 !seconds) ~trace:traced in
  List.iter print_endline o.Workloads.notes;
  let metrics = if traced then o.Workloads.layers else o.Workloads.e2e in
  List.iter
    (fun mt ->
      Printf.printf "%-26s %14.6f %s\n" mt.Workloads.name mt.Workloads.value mt.Workloads.unit_)
    metrics;
  let finite = List.for_all (fun mt -> Float.is_finite mt.Workloads.value) metrics in
  let correct = o.Workloads.failed = 0 && finite in
  let fields =
    List.map
      (fun mt ->
        let v = if Float.is_finite mt.Workloads.value then mt.Workloads.value else 0. in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.Workloads.name (json_number v)
          mt.Workloads.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct o.Workloads.attempted o.Workloads.failed (String.concat ", " fields);
  exit (if correct then 0 else 1)
