(* PR 3 observability tests.

   - Zero-overhead contract: with no sink armed, a full engine workload
     (classification, realization, contradiction grid) must leave every
     counter at zero, every histogram empty and no span records.
     Provenance is the exception since PR 4: the incremental-update
     dependency index needs it, so it is recorded unconditionally, sinks
     armed or not.
   - Grep guard: lib/engine and lib/core present their statistics through
     the Dl_obs registry / the typed stats records, never via Printf —
     the sources are attached as test dependencies (see test/dune).
   - Trace correctness: with tracing on, the span records of a classify +
     contradiction run form a well-nested forest (parents exist, child
     intervals sit inside parent intervals), and every per-verdict
     provenance entry lists a subset of the KB's named individuals,
     jointly covering all of them (the contradiction grid queries every
     individual) — paper Examples 1-4; Example 5 shares Example 3's KB.
   - Invariance: answers are identical with tracing on or off. *)

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The suite may run with DL4_TRACE armed (the CI trace job): save and
   restore the ambient switch so the at_exit trace writer still sees
   whatever state the environment asked for. *)
let with_obs_state enabled f =
  let saved = Obs.enabled () in
  Obs.set_enabled enabled;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled saved)
    f

let examples =
  [ ("example1", Paper_examples.example1);
    ("example2", Paper_examples.example2);
    ("example3", Paper_examples.example3);
    ("example4", Paper_examples.example4) ]

let workload kb =
  let s = Session.create kb in
  let taxonomy = Session.classify s in
  let contradictions = Para.contradictions s in
  (s, (taxonomy, contradictions))

(* ------------------------------------------------------------------ *)
(* Zero overhead when disabled *)

let disabled_tests =
  [ Alcotest.test_case "disabled sinks record nothing" `Quick (fun () ->
        with_obs_state false (fun () ->
            List.iter
              (fun (_, kb) ->
                let e, _ = workload kb in
                ignore (Session.realization e);
                (* provenance is recorded even with sinks off: the
                   dependency index behind Oracle.apply depends on it *)
                Alcotest.(check bool)
                  "provenance captured regardless of sinks" true
                  (Oracle.provenances (Session.oracle e) <> []))
              examples;
            List.iter
              (fun (name, v) ->
                Alcotest.(check int) (name ^ " stays zero") 0 v)
              (Obs.counters ());
            List.iter
              (fun (name, count, sum) ->
                Alcotest.(check int) (name ^ " count stays zero") 0 count;
                Alcotest.(check (float 0.0))
                  (name ^ " sum stays zero") 0.0 sum)
              (Obs.histograms ());
            Alcotest.(check int) "no spans recorded" 0 (Obs.span_count ())))
  ]

(* ------------------------------------------------------------------ *)
(* Guard: stats leave lib/engine and lib/core through the registry or
   the typed stats records, never as ad-hoc Printf output. *)

let guard_tests =
  let scan_dir dir =
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".ml")
      |> List.sort String.compare
    in
    Alcotest.(check bool) (dir ^ " sources are visible") true (files <> []);
    let pat = "Printf." in
    let offenders = ref [] in
    List.iter
      (fun f ->
        let src = read (Filename.concat dir f) in
        let n = String.length src and m = String.length pat in
        for i = 0 to n - m do
          if String.sub src i m = pat then offenders := (f, i) :: !offenders
        done)
      files;
    List.rev !offenders
  in
  [ Alcotest.test_case "no Printf-based stats in lib/engine and lib/core"
      `Quick (fun () ->
        let dir sub = Filename.concat ".." (Filename.concat "lib" sub) in
        Alcotest.(check (list (pair string int)))
          "Printf uses in lib/engine" [] (scan_dir (dir "engine"));
        Alcotest.(check (list (pair string int)))
          "Printf uses in lib/core" [] (scan_dir (dir "core"))) ]

(* ------------------------------------------------------------------ *)
(* Trace correctness *)

let eps_ns = 10_000.0 (* gettimeofday resolution is 1us; allow 10us *)

let span_end (r : Obs.span_record) = r.r_start_ns +. r.r_dur_ns

let check_forest label records =
  let ids = Hashtbl.create 64 in
  List.iter
    (fun (r : Obs.span_record) ->
      Alcotest.(check bool) (label ^ ": span ids positive") true (r.r_id > 0);
      Alcotest.(check bool)
        (label ^ ": span ids unique") false (Hashtbl.mem ids r.r_id);
      Hashtbl.replace ids r.r_id r)
    records;
  List.iter
    (fun (r : Obs.span_record) ->
      Alcotest.(check bool)
        (label ^ ": duration non-negative") true (r.r_dur_ns >= 0.0);
      if r.r_parent <> 0 then
        match Hashtbl.find_opt ids r.r_parent with
        | None ->
            Alcotest.failf "%s: span %s has unknown parent %d" label r.r_name
              r.r_parent
        | Some p ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s starts inside %s" label r.r_name
                 p.Obs.r_name)
              true
              (r.r_start_ns >= p.Obs.r_start_ns -. eps_ns);
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s ends inside %s" label r.r_name
                 p.Obs.r_name)
              true
              (span_end r <= span_end p +. eps_ns))
    records

(* Like the CLI's cli.<cmd> span, the test opens one root over the whole
   workload; it must cover >= 95% of the union of everything recorded —
   no span may leak (temporally) outside it. *)
let check_roots label records =
  let root =
    match
      List.filter (fun (r : Obs.span_record) -> r.r_name = "test.workload")
        records
    with
    | [ r ] -> r
    | rs ->
        Alcotest.failf "%s: want exactly one test.workload root, got %d" label
          (List.length rs)
  in
  Alcotest.(check int) (label ^ ": the root has no parent") 0 root.r_parent;
  let start =
    List.fold_left (fun a (r : Obs.span_record) -> min a r.r_start_ns)
      infinity records
  and stop =
    List.fold_left (fun a r -> max a (span_end r)) neg_infinity records
  in
  let extent = stop -. start in
  if extent > 0.0 then
    Alcotest.(check bool)
      (Printf.sprintf "%s: root covers >= 95%% of the traced extent (%.1f%%)"
         label
         (root.r_dur_ns /. extent *. 100.))
      true
      (root.r_dur_ns >= 0.95 *. extent)

let sorted_individuals kb =
  List.sort_uniq String.compare (Kb4.signature kb).Axiom.individuals

let trace_tests =
  List.map
    (fun (label, kb) ->
      Alcotest.test_case (label ^ " trace is well-formed") `Quick (fun () ->
          let provs =
            with_obs_state true (fun () ->
                let e, _ =
                  Obs.with_span ~cat:"test" "test.workload" (fun () ->
                      workload kb)
                in
                let records = Obs.spans () in
                Alcotest.(check bool)
                  (label ^ ": spans were recorded") true (records <> []);
                check_forest label records;
                check_roots label records;
                Oracle.provenances (Session.oracle e))
          in
          let expected = sorted_individuals kb in
          Alcotest.(check bool)
            (label ^ ": provenance was captured") true (provs <> []);
          (* selective harvest: each verdict depends on a subset of the
             KB's individuals; the contradiction grid queries every
             individual, so jointly the entries cover all of them *)
          List.iter
            (fun (p : Oracle.prov_entry) ->
              Alcotest.(check bool)
                (label ^ ": provenance stays within the KB's individuals")
                true
                (List.for_all (fun a -> List.mem a expected) p.Oracle.individuals))
            provs;
          let union =
            List.sort_uniq String.compare
              (List.concat_map
                 (fun (p : Oracle.prov_entry) -> p.Oracle.individuals)
                 provs)
          in
          Alcotest.(check (list string))
            (label ^ ": provenance jointly covers the KB's individuals")
            expected union))
    examples

(* ------------------------------------------------------------------ *)
(* Invariance: tracing never changes an answer *)

let invariance_tests =
  List.map
    (fun (label, kb) ->
      Alcotest.test_case (label ^ " answers invariant under tracing")
        `Quick (fun () ->
          let baseline =
            with_obs_state false (fun () -> snd (workload kb))
          in
          let traced = with_obs_state true (fun () -> snd (workload kb)) in
          Alcotest.(check bool)
            (label ^ ": tracing on") true (traced = baseline)))
    examples

let () =
  Alcotest.run "obs"
    [ ("disabled", disabled_tests);
      ("guard", guard_tests);
      ("trace", trace_tests);
      ("invariance", invariance_tests) ]
