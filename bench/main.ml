(* Evaluation harness.

   The reproduced paper (EDBT'06 Ws) has no experimental section: its
   evaluation artifacts are the worked Examples 1-5 and Table 4.  This
   harness therefore has two parts:

   1. "Shape" reports regenerating every observable artifact of the paper
      (per-experiment ids EX1, EX2, EX3+EX5, EX4+T4 in DESIGN.md), printed
      as paper-vs-measured tables;

   2. Bechamel micro/mesobenchmarks for the synthetic experiments S1-S4 of
      DESIGN.md (transformation cost, 4-valued vs classical reasoning time,
      answer quality under growing inconsistency, inclusion-kind ablation),
      one Test.make per series point.

   S5-S6 compare engines; S7 and S9-S12 time one fast path against its
   slow twin each and check the ratio against a bound.  The answer and
   count invariants on their KBs are tier-1 tests (test_obs, test_diag,
   test_delta, test_store, test_serve, test_backend, test_telemetry,
   test_planner, test_audit).

   Run with:  dune exec bench/main.exe   (exit 1 when a bound fails) *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing *)

let run_group ~name tests =
  Printf.printf "\n-- timing: %s --\n%!" name;
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None
      ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name ~fmt:"%s/%s" tests in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (test_name, est) ->
      match Analyze.OLS.estimates est with
      | Some (t :: _) ->
          if t > 1e9 then
            Printf.printf "  %-48s %10.2f s/run\n" test_name (t /. 1e9)
          else if t > 1e6 then
            Printf.printf "  %-48s %10.2f ms/run\n" test_name (t /. 1e6)
          else if t > 1e3 then
            Printf.printf "  %-48s %10.2f us/run\n" test_name (t /. 1e3)
          else Printf.printf "  %-48s %10.0f ns/run\n" test_name t
      | _ -> Printf.printf "  %-48s (no estimate)\n" test_name)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

let bench name f = Test.make ~name (Staged.stage f)

(* The wall-clock bounds.  Each experiment checks its ratio where it
   measures it; the run ends with one PASS/FAIL line per bound and exits
   1 if any failed.  Answer and count invariants are tier-1 tests, not
   bounds here: a ratio is taken only between paths whose answers agree,
   which each experiment asserts first. *)
let bound_lines = ref []

let check_bound name value bound =
  let ok, rel, limit =
    match bound with
    | `At_most l -> (value <= l, "<=", l)
    | `At_least l -> (value >= l, ">=", l)
  in
  bound_lines :=
    (ok, Printf.sprintf "%s %s %.3f %s %g" (if ok then "PASS" else "FAIL")
           name value rel limit)
    :: !bound_lines

let wall f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let section title =
  let line = String.make 72 '=' in
  Printf.printf "\n%s\n%s\n%s\n%!" line title line

(* ------------------------------------------------------------------ *)
(* EX1 / EX2 / EX3+EX5 / EX4: the paper's qualitative results *)

let truth t a c = Para.instance_truth t a (Concept.Atom c)

let report_paper_examples () =
  section "EX1-EX4: paper examples - expected (paper text) vs measured";
  let row name expected measured =
    Printf.printf "  %-52s %-8s %-8s %s\n" name expected measured
      (if expected = measured then "OK" else "MISMATCH")
  in
  Printf.printf "  %-52s %-8s %-8s\n" "query" "paper" "dl4";

  let t1 = Para.create Paper_examples.example1 in
  row "EX1 four-valued satisfiable" "yes"
    (if Para.satisfiable t1 then "yes" else "no");
  row "EX1 info that bill is a doctor" "yes"
    (if Para.entails_instance t1 "bill" (Concept.Atom "Doctor") then "yes"
     else "no");
  row "EX1 info that bill is not a doctor" "no"
    (if Para.entails_not_instance t1 "bill" (Concept.Atom "Doctor") then "yes"
     else "no");
  row "EX1 john : Doctor" "TOP" (Truth.to_string (truth t1 "john" "Doctor"));
  row "EX1 john : Patient (irrelevant)" "BOT"
    (Truth.to_string (truth t1 "john" "Patient"));

  let t2 = Para.create Paper_examples.example2 in
  row "EX2 john : ReadPatientRecordTeam" "TOP"
    (Truth.to_string (truth t2 "john" "ReadPatientRecordTeam"));
  row "EX2 john : Patient" "BOT" (Truth.to_string (truth t2 "john" "Patient"));

  let t3 = Para.create Paper_examples.example3 in
  row "EX3 classical rendition satisfiable" "no"
    (if Tableau.kb_satisfiable Paper_examples.example3_classical then "yes"
     else "no");
  row "EX3 four-valued satisfiable" "yes"
    (if Para.satisfiable t3 then "yes" else "no");
  row "EX5 Fly-(tweety) holds" "yes"
    (if
       Reasoner.instance_of (Para.classical_reasoner t3) "tweety"
         (Concept.Atom (Mangle.neg_atom "Fly"))
     then "yes"
     else "no");
  row "EX5 Fly+(tweety) holds" "no"
    (if
       Reasoner.instance_of (Para.classical_reasoner t3) "tweety"
         (Concept.Atom (Mangle.pos_atom "Fly"))
     then "yes"
     else "no");

  let t4 = Para.create Paper_examples.example4 in
  row "EX4 four-valued satisfiable" "yes"
    (if Para.satisfiable t4 then "yes" else "no");
  row "EX4 smith : Parent" "t" (Truth.to_string (truth t4 "smith" "Parent"));
  row "EX4 smith : Married" "f" (Truth.to_string (truth t4 "smith" "Married"))

(* ------------------------------------------------------------------ *)
(* EX4+T4: regenerate Table 4 by model enumeration *)

let report_table4 () =
  section
    "EX4+T4: Table 4 - four-valued models of Example 4 over {smith, kate}";
  let has_child = Role.name "hasChild" in
  let statements m =
    [ Interp4.role_truth_value m has_child "smith" "kate";
      Interp4.truth_value m (Concept.At_least (1, has_child)) "smith";
      Interp4.truth_value m (Concept.Atom "Parent") "smith";
      Interp4.truth_value m (Concept.Atom "Married") "smith" ]
  in
  let module Rows = Set.Make (struct
    type t = Truth.t list

    let compare = List.compare Truth.compare
  end) in
  let realized =
    Seq.fold_left
      (fun acc m -> Rows.add (statements m) acc)
      Rows.empty
      (Enum.models4 Paper_examples.example4)
  in
  Printf.printf "  %-14s %-16s %-10s %-10s\n" "hasChild(s,k)" ">=1.hasChild(s)"
    "Parent(s)" "Married(s)";
  Rows.iter
    (fun r ->
      match List.map Truth.to_string r with
      | [ a; b; c; d ] -> Printf.printf "  %-14s %-16s %-10s %-10s\n" a b c d
      | _ -> ())
    realized;
  let expected = Rows.of_list (List.map fst Paper_examples.table4_rows) in
  Printf.printf "  rows: %d (paper: 9);  exact match with Table 4: %b\n"
    (Rows.cardinal realized)
    (Rows.equal realized expected)

(* ------------------------------------------------------------------ *)
(* S3: answer quality under growing inconsistency *)

let classical_of_kb4 (kb : Kb4.t) =
  Axiom.make
    ~tbox:
      (List.filter_map
         (function
           | Kb4.Concept_inclusion (_, c, d) -> Some (Axiom.Concept_sub (c, d))
           | Kb4.Role_inclusion (_, r, s) -> Some (Axiom.Role_sub (r, s))
           | Kb4.Data_role_inclusion (_, u, v) ->
               Some (Axiom.Data_role_sub (u, v))
           | Kb4.Transitive r -> Some (Axiom.Transitive r))
         kb.Kb4.tbox)
    ~abox:kb.Kb4.abox

let report_quality () =
  section "S3: answer quality vs injected inconsistency (ours; see DESIGN.md)";
  Printf.printf
    "  base: contradiction-free random KB (seed 7); queries: every\n\
    \  (individual, atomic concept) pair; cells count queries.\n\n";
  let base =
    Gen.kb4
      { Gen.default with
        seed = 7;
        n_concepts = 8;
        n_individuals = 8;
        n_tbox = 12;
        n_abox = 20;
        max_depth = 1;
        inconsistency_rate = 0.0;
        material_fraction = 0.0;
        allow_negation = false }
  in
  Printf.printf "  %-6s | %-26s | %-26s | %s\n" "contr."
    "classical acc/rej/und" "selection acc/rej/und" "dl4 t/f/TOP/BOT";
  List.iter
    (fun count ->
      let kb = Gen.inject_contradictions ~seed:(100 + count) ~count base in
      let classical = classical_of_kb4 kb in
      let t = Para.create kb in
      let signature = Kb4.signature kb in
      let queries =
        List.concat_map
          (fun a ->
            List.map
              (fun c -> (a, Concept.Atom c))
              signature.Axiom.concepts)
          signature.Axiom.individuals
      in
      let count_answers f =
        List.fold_left
          (fun (acc, rej, und) q ->
            match f q with
            | Baselines.Accepted -> (acc + 1, rej, und)
            | Baselines.Rejected -> (acc, rej + 1, und)
            | Baselines.Undetermined -> (acc, rej, und + 1))
          (0, 0, 0) queries
      in
      let reasoner = Reasoner.create classical in
      let trivial = not (Reasoner.is_consistent reasoner) in
      let ca, cr, cu =
        count_answers (fun (a, c) ->
            if trivial then Baselines.Accepted
            else if Reasoner.instance_of reasoner a c then Baselines.Accepted
            else if Reasoner.instance_of reasoner a (Concept.neg c) then
              Baselines.Rejected
            else Baselines.Undetermined)
      in
      let sa, sr, su =
        count_answers (fun (a, c) ->
            Baselines.selection_instance classical a c)
      in
      let dt, df, dtop, dbot =
        List.fold_left
          (fun (t', f', top, bot) (a, c) ->
            match Para.instance_truth t a c with
            | Truth.True -> (t' + 1, f', top, bot)
            | Truth.False -> (t', f' + 1, top, bot)
            | Truth.Both -> (t', f', top + 1, bot)
            | Truth.Neither -> (t', f', top, bot + 1))
          (0, 0, 0, 0) queries
      in
      Printf.printf "  %-6d | %7d /%5d /%6d    | %7d /%5d /%6d    | %d / %d / %d / %d\n%!"
        count ca cr cu sa sr su dt df dtop dbot)
    [ 0; 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* S4: ablation over the three inclusion kinds *)

let report_ablation () =
  section "S4: ablation - the default axiom under |->, <, -> (Example 3)";
  Printf.printf "  %-10s %-12s %-14s %-12s\n" "kind" "satisfiable"
    "tweety:Fly" "tweety:Bird";
  List.iter
    (fun kind ->
      let kb =
        { Paper_examples.example3 with
          Kb4.tbox =
            Kb4.Concept_inclusion
              ( kind,
                Concept.And
                  ( Concept.Atom "Bird",
                    Concept.Exists (Role.name "hasWing", Concept.Atom "Wing")
                  ),
                Concept.Atom "Fly" )
            :: List.tl (Paper_examples.example3 : Kb4.t).tbox }
      in
      let t = Para.create kb in
      Printf.printf "  %-10s %-12b %-14s %-12s\n"
        (Kb4.inclusion_symbol kind)
        (Para.satisfiable t)
        (Truth.to_string (truth t "tweety" "Fly"))
        (Truth.to_string (truth t "tweety" "Bird")))
    Kb4.all_inclusions;
  Printf.printf
    "\n  exception chains (n defaults, each with a penguin-style exception):\n";
  Printf.printf "  %-6s %-22s %-22s\n" "n" "4-valued satisfiable"
    "classical satisfiable";
  List.iter
    (fun n ->
      let kb = Gen.exception_chains ~n in
      let classical = classical_of_kb4 kb in
      Printf.printf "  %-6d %-22b %-22b\n" n
        (Para.satisfiable (Para.create kb))
        (Tableau.kb_satisfiable classical))
    [ 1; 4; 16 ]

(* ------------------------------------------------------------------ *)
(* S6: the Dl_engine classification & realization engine *)

let engine_workloads =
  let gen seed n_tbox =
    ( Printf.sprintf "gen_seed%d_tbox%d" seed n_tbox,
      Gen.kb4
        { Gen.default with
          seed;
          n_concepts = 10;
          n_individuals = 8;
          n_tbox;
          n_abox = 16;
          max_depth = 1;
          inconsistency_rate = 0.1 } )
  in
  [ ("example1", Paper_examples.example1);
    ("example2", Paper_examples.example2);
    ("example3", Paper_examples.example3);
    ("example4", Paper_examples.example4);
    ("chains8", Gen.exception_chains ~n:8);
    gen 3 12;
    gen 5 18 ]

let report_engine_classification () =
  section
    "S6a: engine classification vs naive all-pairs (tableau calls per KB)";
  Printf.printf "  %-20s %-7s %-7s %-7s %-7s %-7s %s\n" "kb" "atoms" "naive"
    "engine" "saved" "told" "agree";
  List.iter
    (fun (label, kb) ->
      let t = Para.create kb in
      let naive = Para.classify_naive t in
      let cls = Session.classification (Session.create kb) in
      let s = cls.Classify.stats in
      Printf.printf "  %-20s %-7d %-7d %-7d %-7d %-7d %s\n%!" label s.atoms
        s.naive_tests s.tableau_tests
        (Classify.tableau_calls_saved s)
        s.told_hits
        (if cls.Classify.supers = naive then "OK" else "MISMATCH"))
    engine_workloads

let report_engine_cache () =
  section "S6b: verdict cache - cold vs warm batch of instance queries";
  let kb =
    Gen.kb4
      { Gen.default with
        seed = 17;
        n_concepts = 8;
        n_individuals = 8;
        n_tbox = 12;
        n_abox = 20;
        max_depth = 1;
        inconsistency_rate = 0.1 }
  in
  let signature = Kb4.signature kb in
  let queries =
    List.concat_map
      (fun a -> List.map (fun c -> (a, c)) signature.Axiom.concepts)
      signature.Axiom.individuals
  in
  let batch e =
    List.iter
      (fun (a, c) -> ignore (Para.instance_truth e a (Concept.Atom c)))
      queries
  in
  let e = Session.create kb in
  let time f =
    let t0 = Sys.time () in
    f ();
    Sys.time () -. t0
  in
  let cold = time (fun () -> batch e) in
  let c1 = Oracle.cache_stats (Session.oracle e) in
  let calls1 = Oracle.tableau_calls (Session.oracle e) in
  let warm = time (fun () -> batch e) in
  let c2 = Oracle.cache_stats (Session.oracle e) in
  Printf.printf
    "  %d queries;  cold: %.3fs (%d misses, %d tableau calls)\n\
    \              warm: %.3fs (%d hits);  speedup: %.0fx\n"
    (List.length queries) cold c1.Verdict_cache.misses calls1 warm
    (c2.Verdict_cache.hits - c1.Verdict_cache.hits)
    (cold /. Float.max warm 1e-9)

(* ------------------------------------------------------------------ *)
(* S7: Dl_obs instrumentation overhead.  Two regimes matter:

   - disabled (the default): every hot-path hook is a single
     [if !Obs.on] test, so the per-operation cost is measured directly
     by a tight guard loop and scaled by the registry's counter total
     after an enabled run.  That estimate now overstates the disarmed
     cost: the tableau's event sites no longer test [Obs.on] at all —
     its tableau.* counters are folded from each run's stats diff once,
     when the run ends — yet their totals still count as guard
     crossings here.  The gate and its arithmetic are kept as an upper
     bound;
   - enabled (a sink was requested): counters become Atomic ops and
     spans allocate + lock, measured as wall-clock delta on a
     classification workload (a seeded 14-concept, 10-individual KB).

   The wall-clock regimes (disabled, flight armed, enabled) run
   interleaved, one classify each per round with their order rotating
   round by round, each from a compacted heap: back-to-back blocks let
   host drift between the blocks pass for overhead.  An overhead is the
   median over rounds of the regime's time over the disabled time of
   the same round.  Each regime's minimum is reported too, but not
   gated: on a shared 2-vCPU VM a lone fast run sets it, and the
   minima's ratio read 1-20% over 30 rounds of unchanged code where the
   paired median read 2-4%.

   The taxonomy is asserted equal across regimes before any number is
   reported; test_obs checks the same on this KB on every test run. *)

let report_obs_overhead () =
  section "S7: Dl_obs overhead (disabled guard cost, enabled wall cost)";
  let kb =
    Gen.kb4
      { Gen.default with
        seed = 29;
        n_concepts = 14;
        n_individuals = 10;
        n_tbox = 20;
        n_abox = 24;
        max_depth = 1;
        inconsistency_rate = 0.1 }
  in
  let rounds = 15 in
  let classify_once () = Session.classify (Session.create kb) in
  let was_enabled = Obs.enabled () in
  Obs.set_enabled false;
  (* warm-up before any timed regime: the first classify of the process
     pays allocator/code warm-up that would otherwise inflate whichever
     regime happens to run first *)
  ignore (classify_once ());
  Flight.reset ();
  Obs.reset ();
  (* each regime arms its sinks for one run: the flight recorder with
     rings only (no dump path), every Obs sink off and the slow-query
     log disarmed — the always-on diagnostic regime the <5% budget
     covers — and the enabled registry with the recorder off *)
  let regimes =
    [| ignore; (fun () -> Flight.arm ()); (fun () -> Obs.set_enabled true) |]
  in
  let times = Array.make_matrix rounds 3 0. in
  let taxonomies = ref [] in
  let counter_ops = ref 0 and span_records = ref 0 in
  for round = 0 to rounds - 1 do
    for k = 0 to 2 do
      let r = (round + k) mod 3 in
      (* every run starts from a compacted heap, and the enabled run's
         records are tallied and dropped so the heap does not grow *)
      Gc.compact ();
      regimes.(r) ();
      let tax, dt = wall classify_once in
      Flight.disarm ();
      if Obs.enabled () then begin
        counter_ops :=
          List.fold_left (fun n (_, c) -> n + c) !counter_ops (Obs.counters ());
        span_records := !span_records + Obs.span_count ();
        Obs.reset ();
        Obs.set_enabled false
      end;
      times.(round).(r) <- dt;
      taxonomies := tax :: !taxonomies
    done
  done;
  Flight.reset ();
  Obs.set_enabled was_enabled;
  (match !taxonomies with
  | tax :: rest ->
      if List.exists (fun t -> t <> tax) rest then
        failwith "S7: taxonomy differs between Obs on and Obs off"
  | [] -> ());
  (* the disabled hot path is one load + branch per hook site; measure it
     directly so the "overhead when off" claim is not lost in run-to-run
     wall-clock noise of the full workload *)
  let guard_iters = 50_000_000 in
  let c = Obs.counter "bench.s7.guard" in
  Obs.set_enabled false;
  let (), guard_total = wall (fun () ->
      for _ = 1 to guard_iters do
        Obs.incr c
      done)
  in
  Obs.set_enabled was_enabled;
  let guard_ns = guard_total /. float_of_int guard_iters *. 1e9 in
  (* same idea for the flight recorder's disarmed hot path: one ref load
     + branch per hook site when off *)
  let (), fguard_total =
    wall (fun () ->
        for _ = 1 to guard_iters do
          if !Flight.on then Flight.record "bench.s7" 0 0 ""
        done)
  in
  let flight_guard_ns = fguard_total /. float_of_int guard_iters *. 1e9 in
  let best r = Array.fold_left (fun m t -> Float.min m t.(r)) Float.infinity times in
  let t_off = best 0 and t_flight = best 1 and t_on = best 2 in
  let overhead_pct r =
    let ratios =
      List.sort compare
        (Array.to_list (Array.map (fun t -> t.(r) /. t.(0)) times))
    in
    (List.nth ratios (rounds / 2) -. 1.) *. 100.
  in
  let ops_per_run = !counter_ops / rounds in
  let spans_per_run = !span_records / rounds in
  (* per enabled run, [ops_per_run] counter bumps happened; the disabled
     run crosses the same hook sites but pays only the guard *)
  let disabled_overhead_pct =
    guard_ns *. float_of_int ops_per_run /. 1e9 /. t_off *. 100.
  in
  let enabled_overhead_pct = overhead_pct 2 in
  let flight_overhead_pct = overhead_pct 1 in
  Printf.printf
    "  classify (seed-29 KB), %d interleaved rounds: minimum, and the \
     median paired overhead\n"
    rounds;
  Printf.printf "    disabled      %8.4fs\n" t_off;
  Printf.printf "    flight armed  %8.4fs   (+%.1f%%)\n" t_flight
    flight_overhead_pct;
  Printf.printf "    enabled       %8.4fs   (+%.1f%%)\n" t_on
    enabled_overhead_pct;
  Printf.printf "  guard (if !Obs.on) cost:      %6.2f ns/op\n" guard_ns;
  Printf.printf "  guard (if !Flight.on) cost:   %6.2f ns/op\n" flight_guard_ns;
  Printf.printf "  hook crossings per run:       %6d counter ops, %d spans\n"
    ops_per_run spans_per_run;
  Printf.printf "  disabled-path overhead:       %6.3f%% of run time\n"
    disabled_overhead_pct;
  Printf.printf "  flight-armed overhead:        %6.3f%% of run time\n"
    flight_overhead_pct;
  check_bound "S7 disabled_overhead_pct" disabled_overhead_pct (`At_most 3.0);
  check_bound "S7 flight_overhead_pct" flight_overhead_pct (`At_most 5.0)

(* ------------------------------------------------------------------ *)
(* S9 and S11 serve the full atomic grid of one seeded KB from a warm
   session: the warming [dl4 snapshot] performs (consistency, the grid
   in both polarities, classification). *)

let serve_kb =
  Gen.kb4
    { Gen.default with
      seed = 41;
      n_concepts = 10;
      n_individuals = 8;
      n_tbox = 14;
      n_abox = 18;
      max_depth = 1;
      inconsistency_rate = 0.1 }

let serve_requests =
  let signature = Kb4.signature serve_kb in
  List.concat_map
    (fun a ->
      List.map
        (fun c ->
          Printf.sprintf {|{"op":"query","individual":"%s","concept":"%s"}|}
            a c)
        signature.Axiom.concepts)
    signature.Axiom.individuals

let warm_session () =
  let s = Session.create serve_kb in
  ignore (Para.satisfiable s : bool);
  ignore (Para.contradictions s : (string * string) list);
  ignore (Session.classification s : Classify.t);
  s

(* the truth value of one [Serve.handle] query round trip *)
let serve_truth srv req =
  let resp = Serve.handle srv req in
  match
    Option.bind
      (Result.to_option (Json_lite.parse resp))
      (fun j -> Option.bind (Json_lite.member "truth" j) Json_lite.to_str)
  with
  | Some t -> t
  | None -> failwith ("serve response lacks a truth value: " ^ resp)

(* ------------------------------------------------------------------ *)
(* S9: the warm server vs cold per-query sessions.  Two ways to answer
   the same atomic query grid:

   - cold: a fresh Session per query — what every separate `dl4 query`
     CLI invocation pays (minus process start-up, which only widens the
     gap in the daemon's favour);
   - serve: NDJSON round trips through [Serve.handle] on a warm daemon
     state — the in-process core of a `dl4 serve` socket round trip.

   Both must produce identical truth values, and the serve round trip
   must beat the cold path by >= 10x.  test_store and test_serve check
   the answers on this KB, and that a snapshot-restored session answers
   them with zero tableau calls. *)

let report_serve () =
  section "S9: warm serve vs cold sessions";
  let queries =
    let signature = Kb4.signature serve_kb in
    List.concat_map
      (fun a -> List.map (fun c -> (a, c)) signature.Axiom.concepts)
      signature.Axiom.individuals
  in
  let n = List.length queries in
  let cold_answers, cold_total =
    wall (fun () ->
        List.map
          (fun (a, c) ->
            Truth.to_string
              (Para.instance_truth (Session.create serve_kb) a
                 (Concept.Atom c)))
          queries)
  in
  let srv = Serve.create (warm_session ()) in
  let serve_answers, serve_total =
    wall (fun () -> List.map (serve_truth srv) serve_requests)
  in
  if cold_answers <> serve_answers then
    failwith "S9: answers differ between cold sessions and serve";
  let per_q total = total /. float_of_int n *. 1000. in
  let cold_ms = per_q cold_total in
  let warm_roundtrip_ms = per_q serve_total in
  let warm_speedup = cold_ms /. Float.max warm_roundtrip_ms 1e-9 in
  Printf.printf "  %d queries (full atomic grid)\n" n;
  Printf.printf "  cold session per query:   %8.4f ms\n" cold_ms;
  Printf.printf "  warm serve round trip:    %8.4f ms  (speedup %.0fx)\n"
    warm_roundtrip_ms warm_speedup;
  check_bound "S9 warm_speedup" warm_speedup (`At_least 10.)

(* ------------------------------------------------------------------ *)
(* S10: the auto router on a Horn-heavy workload.  The same
   classification plus instance-grid workload runs twice — backend
   pinned to the tableau, and under the auto router, which sends what
   the Horn/EL fragment covers to the completion engine.  Answers must
   be identical, and auto must beat the pinned tableau by >= 1.3x.
   test_backend checks all three backends' answers, auto's route share
   and the tableau's verdict count on this KB. *)

let report_backends () =
  section "S10: tableau vs auto on a Horn workload";
  (* a pure concept tree (squarely in the fragment) plus a handful of
     leaf memberships so the instance grid is exercised too *)
  let kb =
    let base =
      Kb4.of_classical ~inclusion:Kb4.Internal
        (Gen.taxonomy ~depth:4 ~branching:3)
    in
    { base with
      Kb4.abox =
        base.Kb4.abox
        @ [ Axiom.Instance_of ("i0", Concept.Atom "C4_0");
            Axiom.Instance_of ("i1", Concept.Atom "C4_40");
            Axiom.Instance_of ("i2", Concept.Atom "C4_80");
            Axiom.Instance_of ("i2", Concept.Not (Concept.Atom "C0_0")) ] }
  in
  let signature = Kb4.signature kb in
  let grid =
    List.concat_map
      (fun a ->
        List.map (fun c -> (a, Concept.Atom c)) signature.Axiom.concepts)
      signature.Axiom.individuals
  in
  let run backend =
    let s =
      Session.create
        ~config:{ Session.default_config with backend } kb
    in
    wall (fun () ->
        let tax = Session.classify s in
        let truths =
          List.map (fun (a, c) -> Para.instance_truth s a c) grid
        in
        (tax, truths))
  in
  let tab_out, tab_dt = run Backend.Tableau in
  let auto_out, auto_dt = run Backend.Auto in
  if tab_out <> auto_out then failwith "S10: answers differ tableau vs auto";
  let speedup = tab_dt /. Float.max auto_dt 1e-9 in
  Printf.printf
    "  %d concepts, %d grid cells;  tableau %.3fs  auto %.3fs  (speedup \
     %.1fx)\n"
    (List.length signature.Axiom.concepts)
    (List.length grid) tab_dt auto_dt speedup;
  check_bound "S10 speedup_auto_vs_tableau" speedup (`At_least 1.3)

(* ------------------------------------------------------------------ *)
(* S11: what does the PR 8 telemetry plane cost per request?

   Two measurements combine into the bounded ratio:

   - the *marginal* cost of arming: the same warm atomic grid runs
     through [Serve.handle] on a disarmed daemon ([~telemetry:false])
     and a fully armed one (registry + trace minting + access log),
     interleaved round by round so allocator and scheduler drift hits
     both sides equally, min-of-rounds each.  In-process paired diffs
     are stable to ~0.1 us/query.

   - the *real* round trip a client pays: one armed daemon serving the
     grid over its unix socket via [Serve.request] (connect + write +
     read per query), min-of-rounds.

   overhead_pct = marginal / socket round trip.  We deliberately do
   NOT compare two socket daemons against each other: per-thread
   placement bias makes that differ by +-20% across runs, drowning a
   ~1 us marginal.  The ratio of a paired in-process diff to a single
   daemon's absolute round trip is what a client actually experiences
   and is reproducible.  Answers must be identical armed vs disarmed
   and the ratio must stay within 5%.  test_telemetry checks the
   answers, and that the armed daemon writes its access log, on this
   KB. *)

let report_telemetry () =
  section "S11: telemetry-armed vs disarmed serve round trips";
  let n = List.length serve_requests in
  let grid srv = List.map (serve_truth srv) serve_requests in
  let rounds = 100 in
  let access = Filename.temp_file "dl4_bench_s11" ".access.jsonl" in
  let disarmed = Serve.create ~telemetry:false (warm_session ()) in
  let armed = Serve.create ~access_log:access (warm_session ()) in
  (* warm both verdict caches before timing anything *)
  if grid disarmed <> grid armed then
    failwith "S11: answers differ armed vs disarmed";
  let timed srv =
    let t0 = Unix.gettimeofday () in
    ignore (grid srv : string list);
    Unix.gettimeofday () -. t0
  in
  let off_dt = ref Float.infinity and on_dt = ref Float.infinity in
  for _ = 1 to rounds do
    off_dt := Float.min !off_dt (timed disarmed);
    on_dt := Float.min !on_dt (timed armed)
  done;
  Serve.sync armed;
  let per_q dt = dt /. float_of_int n *. 1e6 in
  let marginal_us = per_q !on_dt -. per_q !off_dt in
  (* denominator: what a client pays per query against a live armed
     daemon, connect-per-request over the unix socket *)
  let sock = Filename.temp_file "dl4_bench_s11" ".sock" in
  Sys.remove sock;
  let daemon = Serve.create ~access_log:access (warm_session ()) in
  let th = Thread.create (fun () -> Serve.run ~socket_path:sock daemon) () in
  let rec wait_bind k =
    if Sys.file_exists sock then ()
    else if k = 0 then failwith "S11: daemon did not bind"
    else begin Thread.delay 0.01; wait_bind (k - 1) end
  in
  wait_bind 500;
  let sock_grid () =
    List.iter
      (fun req -> ignore (Serve.request ~socket_path:sock req : string))
      serve_requests
  in
  sock_grid ();
  let rt_dt = ref Float.infinity in
  for _ = 1 to 15 do
    let t0 = Unix.gettimeofday () in
    sock_grid ();
    rt_dt := Float.min !rt_dt (Unix.gettimeofday () -. t0)
  done;
  ignore (Serve.request ~socket_path:sock {|{"op":"shutdown"}|} : string);
  Thread.join th;
  Sys.remove access;
  let roundtrip_us = per_q !rt_dt in
  let overhead_pct = Float.max 0. marginal_us /. roundtrip_us *. 100. in
  Printf.printf "  %d warm queries/round, marginal from %d interleaved rounds\n"
    n rounds;
  Printf.printf "  in-process handle: disarmed %8.3f us/q, armed %8.3f us/q\n"
    (per_q !off_dt) (per_q !on_dt);
  Printf.printf "  marginal cost of arming: %+.3f us/q\n" marginal_us;
  Printf.printf "  socket round trip (armed daemon): %8.3f us/q\n" roundtrip_us;
  Printf.printf "  client-visible overhead: %.2f%%\n" overhead_pct;
  check_bound "S11 telemetry_overhead_pct" overhead_pct (`At_most 5.0)

(* ------------------------------------------------------------------ *)
(* S12: cost-based CQ planner vs syntactic atom order *)

(* A deliberately skewed KB: one rare concept (2 told instances), one
   common one (40), a sparse role between them — and a query whose body
   is written in the pessimal order (common atom first), so the
   syntactic baseline pays a full [common × individuals] role grid
   while the cost plan starts from the rare side.  Answers must be
   identical, and the cost plan must be >= 1.2x faster.  test_planner
   checks the answers against the naive reference, and the probe
   counts, on this KB. *)
let report_planner () =
  section "S12: cost-based CQ planner vs syntactic order";
  let n_common = 40 in
  let kb =
    let base =
      Kb4.of_classical ~inclusion:Kb4.Internal
        (Axiom.make
           ~tbox:[ Axiom.Concept_sub (Concept.Atom "Rare", Concept.Atom "Flagged") ]
           ~abox:[])
    in
    let commons =
      List.init n_common (fun i ->
          Axiom.Instance_of (Printf.sprintf "c%d" i, Concept.Atom "Common"))
    in
    let rares =
      [ Axiom.Instance_of ("r0", Concept.Atom "Rare");
        Axiom.Instance_of ("r1", Concept.Atom "Rare") ]
    in
    let links =
      List.map
        (fun (a, b) -> Axiom.Role_assertion (a, Role.name "links", b))
        [ ("c0", "r0"); ("c0", "r1"); ("c1", "r0");
          ("c1", "r1"); ("c2", "r0"); ("c3", "r1") ]
    in
    { base with Kb4.abox = base.Kb4.abox @ commons @ rares @ links }
  in
  (* body written common-first: the worst order a naive planner inherits *)
  let q =
    match Cq.parse "?x, ?y <- Common(?x), links(?x, ?y), Rare(?y)" with
    | Ok q -> q
    | Error msg -> failwith ("S12: bad cq: " ^ msg)
  in
  (* each measured run pays its probes from a cold cache: fresh session,
     compile (probe-free) outside the timed region *)
  let measure order =
    let plan = Cq.compile ~order (Session.create kb) q in
    wall (fun () -> Cq.run plan)
  in
  let plan_ans, plan_dt = measure `Cost in
  let syn_ans, syn_dt = measure `Syntactic in
  if plan_ans <> syn_ans then failwith "S12: answers differ across plans";
  let wall_speedup = syn_dt /. Float.max plan_dt 1e-9 in
  Printf.printf "  %d individuals, %d designated answers\n"
    (n_common + 2) (List.length plan_ans);
  Printf.printf "  wall:   cost plan %.4fs, syntactic %.4fs (%.1fx faster)\n"
    plan_dt syn_dt wall_speedup;
  check_bound "S12 wall_speedup" wall_speedup (`At_least 1.2)

(* ------------------------------------------------------------------ *)
(* Timing benches *)

let paper_benches () =
  [ bench "example1_instance_query" (fun () ->
        let t = Para.create Paper_examples.example1 in
        Para.instance_truth t "bill" (Concept.Atom "Doctor"));
    bench "example2_instance_query" (fun () ->
        let t = Para.create Paper_examples.example2 in
        Para.instance_truth t "john" (Concept.Atom "ReadPatientRecordTeam"));
    bench "example3_satisfiability" (fun () ->
        Tableau.kb_satisfiable (Transform.kb Paper_examples.example3));
    bench "example3_classical_unsat" (fun () ->
        Tableau.kb_satisfiable Paper_examples.example3_classical);
    bench "example4_satisfiability" (fun () ->
        Tableau.kb_satisfiable (Transform.kb Paper_examples.example4));
    bench "example4_table4_enumeration" (fun () ->
        Seq.fold_left (fun n _ -> n + 1) 0 (Enum.models4 Paper_examples.example4))
  ]

(* S1: the transformation is linear time (the paper: "polynomial"). *)
let transform_benches () =
  List.map
    (fun n ->
      let kb =
        Gen.kb4
          { Gen.default with
            seed = n;
            n_concepts = max 10 (n / 10);
            n_individuals = max 10 (n / 10);
            n_tbox = n / 2;
            n_abox = n / 2 }
      in
      bench (Printf.sprintf "transform_%05d_axioms" n) (fun () ->
          Transform.kb kb))
    [ 100; 400; 1600; 6400 ]

(* S2: classical vs four-valued satisfiability cost on the same ontology,
   consistent and with injected contradictions.  Same complexity class
   (Theorem 6); the gap is a constant factor from the doubled signature. *)
let reasoning_benches () =
  List.concat_map
    (fun n ->
      (* consistent workload: negation-free, so both readings are
         satisfiable and the comparison is signature-for-signature fair *)
      let p =
        { Gen.default with
          seed = 11;
          n_concepts = max 6 (n / 4);
          n_individuals = max 6 (n / 4);
          n_tbox = n / 2;
          n_abox = n / 2;
          max_depth = 1;
          inconsistency_rate = 0.0;
          material_fraction = 0.2;
          allow_negation = false }
      in
      let kb4 = Gen.kb4 p in
      let classical = Gen.classical p in
      let kbar = Transform.kb kb4 in
      (* inconsistent workload: same shape with negations and injected
         contradictions; the classical reading trivializes (fast unsat),
         the four-valued one keeps reasoning *)
      let p_inc = { p with allow_negation = true } in
      let kb4_inc =
        Gen.inject_contradictions ~seed:13 ~count:(max 1 (n / 10)) (Gen.kb4 p_inc)
      in
      let classical_inc = Gen.classical p_inc in
      let kbar_inc = Transform.kb kb4_inc in
      (* chronological backtracking is worst-case exponential; a branch
         budget keeps pathological draws from stalling the harness (blown
         budgets read as `false` and are noted in EXPERIMENTS.md) *)
      let sat kb () =
        try Tableau.kb_satisfiable ~max_branches:50_000 kb
        with Tableau.Resource_limit _ -> false
      in
      [ bench (Printf.sprintf "consistent_classical_%04d" n) (sat classical);
        bench (Printf.sprintf "consistent_fourvalued_%04d" n) (sat kbar);
        bench (Printf.sprintf "inconsistent_classical_%04d" n) (sat classical_inc);
        bench (Printf.sprintf "inconsistent_fourvalued_%04d" n) (sat kbar_inc) ])
    [ 40; 80; 160 ]

let query_benches () =
  List.map
    (fun n ->
      let kb =
        Gen.kb4
          { Gen.default with
            seed = 23;
            n_concepts = max 6 (n / 4);
            n_individuals = max 6 (n / 4);
            n_tbox = n / 2;
            n_abox = n / 2;
            max_depth = 1;
            inconsistency_rate = 0.1 }
      in
      (* the session is built inside the closure: a session built once
         would answer every run after the first from its verdict cache *)
      bench (Printf.sprintf "instance_truth_%04d" n) (fun () ->
          Para.instance_truth (Para.create kb) "a0" (Concept.Atom "C0")))
    [ 40; 80; 160 ]

(* S5 (ours): native four-valued tableau vs the transformation pipeline *)
let engine_benches () =
  List.concat_map
    (fun (label, kb) ->
      [ bench (label ^ "_transformation") (fun () ->
            Tableau.kb_satisfiable (Transform.kb kb));
        bench (label ^ "_native") (fun () ->
            Tableau4.satisfiable (Tableau4.create kb)) ])
    [ ("example1", Paper_examples.example1);
      ("example3", Paper_examples.example3);
      ("example4", Paper_examples.example4);
      ("chains16", Gen.exception_chains ~n:16) ]

(* S6 timing: naive vs engine classification, and cold vs warm cache.  The
   warm engine is created (and pre-warmed) once, so every measured run is
   answered from the verdict cache. *)
let engine_classification_benches () =
  List.concat_map
    (fun (label, kb) ->
      [ bench ("classify_naive_" ^ label) (fun () ->
            Para.classify_naive (Para.create kb));
        bench ("classify_engine_" ^ label) (fun () ->
            Session.classify (Session.create kb)) ])
    [ ("example3", Paper_examples.example3);
      ("chains8", Gen.exception_chains ~n:8) ]

let engine_cache_benches () =
  let kb =
    Gen.kb4
      { Gen.default with
        seed = 17;
        n_concepts = 8;
        n_individuals = 8;
        n_tbox = 12;
        n_abox = 20;
        max_depth = 1;
        inconsistency_rate = 0.1 }
  in
  let signature = Kb4.signature kb in
  let queries =
    List.concat_map
      (fun a -> List.map (fun c -> (a, c)) signature.Axiom.concepts)
      signature.Axiom.individuals
  in
  let batch e =
    List.iter
      (fun (a, c) -> ignore (Para.instance_truth e a (Concept.Atom c)))
      queries
  in
  let warm = Session.create kb in
  batch warm;
  [ bench "query_batch_cold_cache" (fun () -> batch (Session.create kb));
    bench "query_batch_warm_cache" (fun () -> batch warm);
    bench "realize_cold" (fun () -> Session.realization (Session.create kb)) ]

let ablation_benches () =
  List.map
    (fun kind ->
      let name =
        match kind with
        | Kb4.Material -> "material"
        | Kb4.Internal -> "internal"
        | Kb4.Strong -> "strong"
      in
      let kb =
        Kb4.make
          ~tbox:
            (List.init 20 (fun i ->
                 Kb4.Concept_inclusion
                   ( kind,
                     Concept.Atom (Printf.sprintf "A%d" i),
                     Concept.Atom (Printf.sprintf "A%d" (i + 1)) )))
          ~abox:[ Axiom.Instance_of ("x", Concept.Atom "A0") ]
      in
      bench ("chain20_" ^ name) (fun () ->
          Para.instance_truth (Para.create kb) "x" (Concept.Atom "A20")))
    Kb4.all_inclusions

let () =
  section "dl4 evaluation harness";
  Printf.printf
    "The reproduced paper has no measured tables; the EX* reports regenerate\n\
     its worked examples and Table 4, and S1-S4 are the synthetic evaluation\n\
     defined in DESIGN.md.  Timings are OLS estimates (bechamel).\n";
  report_paper_examples ();
  report_table4 ();
  report_quality ();
  report_ablation ();
  report_engine_classification ();
  report_engine_cache ();
  report_obs_overhead ();
  report_serve ();
  report_backends ();
  report_telemetry ();
  report_planner ();
  section "timing series (S1-S4)";
  run_group ~name:"paper" (paper_benches ());
  run_group ~name:"scale_transform" (transform_benches ());
  run_group ~name:"scale_reasoning" (reasoning_benches ());
  run_group ~name:"scale_query" (query_benches ());
  run_group ~name:"engines" (engine_benches ());
  run_group ~name:"classification" (engine_classification_benches ());
  run_group ~name:"verdict_cache" (engine_cache_benches ());
  run_group ~name:"ablation" (ablation_benches ());
  section "wall-clock bounds (S7, S9-S12)";
  let bounds = List.rev !bound_lines in
  List.iter (fun (_, line) -> Printf.printf "  %s\n" line) bounds;
  Printf.printf "\ndone.\n";
  if List.exists (fun (ok, _) -> not ok) bounds then exit 1
