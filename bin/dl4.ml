(* dl4 — command-line front end for the paraconsistent OWL DL reasoner.

   Subcommands:
   - reasoning over a session (one front door, [reasoning_cmd]): check,
     query, audit, classify, realize, update, retrieve, explain-plan,
     snapshot, serve;
   - one-shot: transform, models, explain, repair, stats, fragment,
     convert;
   - tools: profile, client, top.
   Knowledge bases are read in the surface syntax of [Surface] (see
   README.md for the grammar). *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The one reader rule: an input that does not parse prints
   "WHAT: ERROR" and exits 2. *)
let or_exit what pp = function
  | Ok v -> v
  | Error e ->
      Format.eprintf "%s: %a@." what pp e;
      exit 2

let load_kb4 path =
  or_exit path Surface.pp_error (Surface.parse_kb4 (read_file path))

let load_kb path =
  or_exit path Surface.pp_error (Surface.parse_kb (read_file path))

let load_owl path =
  or_exit path Owl_functional.pp_error
    (Owl_functional.parse_ontology (read_file path))

let load_concept src =
  or_exit (Printf.sprintf "concept %S" src) Surface.pp_error
    (Surface.parse_concept src)

let load_cq src =
  or_exit (Printf.sprintf "cq %S" src) Format.pp_print_string (Cq.parse src)

let load_exactly spec =
  or_exit
    (Printf.sprintf "--exactly %S" spec)
    Format.pp_print_string (Truth.set_of_string spec)

(* A count flag below zero is refused before any work. *)
let require_non_negative flag n =
  if n < 0 then begin
    Format.eprintf "--%s must be non-negative@." flag;
    exit 2
  end

let file_arg =
  Arg.(
    required
    & pos 0 (some non_dir_file) None
    & info [] ~docv:"FILE" ~doc:"Knowledge base in dl4 surface syntax.")

let classical_flag =
  Arg.(
    value & flag
    & info [ "classical" ]
        ~doc:"Read the file as a classical SHOIN(D) KB (inclusions use <<).")

let owl_flag =
  Arg.(
    value & flag
    & info [ "owl" ]
        ~doc:
          "Read the file as OWL 2 functional-style syntax (classical \
           semantics; inclusions are treated as internal in four-valued \
           mode).")

let max_nodes_arg =
  Arg.(
    value & opt int 20_000
    & info [ "max-nodes" ] ~docv:"N"
        ~doc:"Tableau completion-graph node limit.")

let max_branches_arg =
  Arg.(
    value & opt int max_int
    & info [ "max-branches" ] ~docv:"N"
        ~doc:
          "Tableau branch budget per run (default unlimited).  A run that \
           explores more than $(docv) nondeterministic alternatives is \
           aborted: dl4 exits with code 3, and when the flight recorder is \
           armed (--flight) its ring is dumped at the trip point.")

let cache_size_arg =
  Arg.(
    value
    & opt int Oracle.default_cache_capacity
    & info [ "cache-size" ] ~docv:"N"
        ~doc:"Capacity of the LRU verdict cache (number of tableau verdicts).")

let backend_arg =
  let backend_conv =
    Arg.conv
      ( (fun s ->
          match Backend.choice_of_string s with
          | Ok c -> Ok c
          | Error e -> Error (`Msg e)),
        fun ppf c -> Format.pp_print_string ppf (Backend.choice_to_string c) )
  in
  Arg.(
    value
    & opt backend_conv Backend.Auto
    & info [ "backend" ] ~docv:"B"
        ~env:(Cmd.Env.info "DL4_BACKEND")
        ~doc:
          "Reasoning backend: $(b,auto) (default) routes each verdict to \
           the cheapest complete backend — the Horn/EL completion engine \
           when the transformed KB lies in its fragment (see 'dl4 \
           fragment'), the tableau otherwise; $(b,tableau) pins every \
           verdict to the tableau; $(b,horn) requires the fragment and \
           fails on KBs outside it.  Whatever the choice, answers are \
           identical — only the work profile changes.")

let stats_flag =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print the uniform statistics footer (the Obs registry): tableau \
           runs and rule firings, verdict-cache hits, oracle routes, \
           classification/realization work.  Identical across subcommands.")

let metrics_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:"Write the metrics registry as a flat JSON object to $(docv).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON timeline of the run's spans \
           (tableau runs, oracle verdicts, engine phases) \
           to $(docv); load it in about:tracing or ui.perfetto.dev.")

let slow_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "slow-log" ] ~docv:"FILE"
        ~doc:
          "Append one JSONL record per slow verdict (cost record, \
           provenance symbols, cache disposition) to $(docv).  A verdict is \
           slow when its tableau wall time reaches the --slow-ms threshold.")

let slow_ms_arg =
  Arg.(
    value & opt float 100.0
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:"Slow-verdict threshold for --slow-log, in milliseconds.")

let flight_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight" ] ~docv:"FILE"
        ~doc:
          "Arm the flight recorder and dump its event ring to \
           $(docv) at the end of the run (and immediately on a \
           max-nodes/max-branches trip).")

let obs_term =
  let pack stats metrics trace slow_log slow_ms flight =
    (stats, metrics, trace, slow_log, slow_ms, flight)
  in
  Term.(
    const pack $ stats_flag $ metrics_json_arg $ trace_arg $ slow_log_arg
    $ slow_ms_arg $ flight_arg)

(* The failure rule for files named by a flag (see sink.mli): the
   message names the path the user gave. *)
let cannot_write ~cmd msg = Format.eprintf "dl4 %s: cannot write %s@." cmd msg

(* Raised by a command body for an output of its own (audit's report,
   serve's logs and scrape file) that cannot be written; [with_obs]
   reports it under the failure rule and exits 2. *)
exception Cannot_write of string

(* Run a subcommand under a root span with the observability sinks the
   user asked for.  Arming happens before any KB is loaded, so the root
   span covers parsing, reduction and reasoning — (almost) the whole
   wall time of the invocation; a slow log that cannot be opened stops
   the command there, before any work.  Artifacts are written after the
   command's own output, on every path, including a tableau
   resource-limit trip (exit 3): a truncated run is exactly the one
   whose footer, metrics and flight dump are worth reading.  One that
   cannot be written makes the exit code 2; a trip keeps its 3. *)
let with_obs ~cmd (stats, metrics, trace, slow_log, slow_ms, flight) run =
  (try Option.iter (Obs.arm_slow_log ~threshold_ms:slow_ms) slow_log
   with Sys_error msg ->
     cannot_write ~cmd msg;
     exit 2);
  if stats || metrics <> None || trace <> None then Obs.set_enabled true;
  Option.iter (fun p -> Flight.arm ~path:p ()) flight;
  (* one trace ID per CLI invocation: every cost record, span, slow-log
     line and flight event of this run carries it.  The serve loop
     re-mints per request on top of this. *)
  let trace_id = Obs.new_trace_id () in
  Obs.set_trace_id trace_id;
  let written write = function
    | None -> true
    | Some path -> (
        match write path with
        | () -> true
        | exception Sys_error msg ->
            cannot_write ~cmd msg;
            false)
  in
  let finish ?(tripped = false) code =
    if stats then Obs.print_footer ();
    let metrics_ok = written Obs.write_metrics_json metrics in
    let trace_ok = written Obs.write_trace trace in
    let flight_ok = written Flight.write flight in
    (match flight with
    | Some p when tripped && flight_ok ->
        Format.eprintf "flight recording dumped to %s@." p
    | _ -> ());
    if metrics_ok && trace_ok && flight_ok then code else max code 2
  in
  let sp = Obs.enter ~cat:"cli" ("cli." ^ cmd) in
  Obs.set_attr sp "trace_id" trace_id;
  match run () with
  | code ->
      Obs.exit_span sp;
      finish code
  | exception Cannot_write msg ->
      Obs.exit_span sp;
      cannot_write ~cmd msg;
      finish 2
  | exception Backend.Unsupported msg ->
      Obs.exit_span sp;
      Format.eprintf
        "dl4 %s: %s@.hint: run 'dl4 fragment' for the full diagnosis, or \
         drop --backend horn@."
        cmd msg;
      finish 2
  | exception Tableau.Resource_limit msg ->
      Obs.exit_span sp;
      Format.eprintf "dl4 %s: tableau resource limit: %s@." cmd msg;
      if flight = None then
        Format.eprintf
          "hint: re-run with --flight FILE to capture the events leading \
           up to the trip@.";
      finish ~tripped:true 3
  | exception e ->
      Obs.exit_span sp;
      raise e

(* ------------------------------------------------------------------ *)
(* The front door of the reasoning subcommands: one term for a
   session's inputs, one function that builds the session, one command
   constructor.  Every reasoning subcommand can warm-start from a
   dl4-snap file.  Loading is strictly best-effort — any validation
   failure (corruption, version skew, different KB) warns and falls
   back to a cold build, because a wrong warm cache would mean wrong
   answers while a cold build only means wasted time. *)

let from_snapshot_arg =
  Arg.(
    value
    & opt (some non_dir_file) None
    & info [ "from-snapshot" ] ~docv:"SNAP"
        ~doc:
          "Warm-start from a snapshot written by 'dl4 snapshot' (or the \
           serve daemon's autosave).  The snapshot must have been taken \
           over exactly this KB; on mismatch, corruption, truncation or \
           version skew dl4 warns and builds cold.  Cached verdicts, the \
           classification index and the cost history carry over, so \
           repeated queries pay zero tableau calls.  --backend, \
           --max-nodes, --max-branches and the verdict cache's size are \
           taken from the snapshot.")

type session_args = {
  file : string;
  config : Session.config;
  from_snapshot : string option;
}

let session_term cache_size =
  let make file max_nodes max_branches cache_capacity backend from_snapshot =
    { file;
      config = { Session.max_nodes; max_branches; cache_capacity; backend };
      from_snapshot }
  in
  Term.(
    const make $ file_arg $ max_nodes_arg $ max_branches_arg $ cache_size
    $ backend_arg $ from_snapshot_arg)

(* Parse FILE (unless the caller already has [kb]) and build the
   session: cold, or restored from --from-snapshot. *)
let open_session ?kb { file; config; from_snapshot } =
  let kb = match kb with Some kb -> kb | None -> load_kb4 file in
  match from_snapshot with
  | None -> Session.create ~config kb
  | Some path -> (
      match Store.load_session ~kb path with
      | Ok s -> s
      | Error e ->
          Format.eprintf "warning: ignoring snapshot %s (%s); building cold@."
            path (Store.error_to_string e);
          Session.create ~config kb)

(* A reasoning subcommand: [run] is the term of its own flags, applied
   to the session inputs and run under [with_obs].  Only the commands
   that pass [cache_size] take --cache-size. *)
let reasoning_cmd name ~doc
    ?(cache_size = Term.const Oracle.default_cache_capacity) run =
  let under_obs run args obs = with_obs ~cmd:name obs (fun () -> run args) in
  Cmd.v (Cmd.info name ~doc)
    Term.(const under_obs $ run $ session_term cache_size $ obs_term)

(* Warm the session the way the snapshot/serve paths want it: the
   consistency bit, the full individuals-by-atoms truth grid (covers
   every atomic instance query in both polarities) and the
   classification index. *)
let warm_session s =
  ignore (Para.satisfiable s : bool);
  ignore (Para.contradictions s : (string * string) list);
  ignore (Session.classification s : Classify.t)

(* ------------------------------------------------------------------ *)

let check_cmd =
  let run classical owl args =
    if classical || owl then begin
      let kb = if owl then load_owl args.file else load_kb args.file in
      let r =
        Reasoner.create ~max_nodes:args.config.Session.max_nodes
          ~max_branches:args.config.Session.max_branches kb
      in
      List.iter (Format.printf "warning: %s@.") (Reasoner.validate r);
      if Reasoner.is_consistent r then begin
        Format.printf "consistent@.";
        0
      end
      else begin
        Format.printf
          "INCONSISTENT: under two-valued semantics every conclusion \
           follows@.";
        1
      end
    end
    else begin
      let t = open_session args in
      if not (Para.satisfiable t) then begin
        Format.printf "four-valued UNSATISFIABLE@.";
        1
      end
      else begin
        Format.printf "four-valued satisfiable@.";
        (match Para.contradictions t with
        | [] -> Format.printf "no localized contradictions@."
        | cs ->
            Format.printf "localized contradictions (value TOP):@.";
            List.iter (fun (a, c) -> Format.printf "  %s : %s@." a c) cs);
        0
      end
    end
  in
  reasoning_cmd "check"
    ~doc:
      "Check satisfiability; in four-valued mode also report the \
       localized contradictions."
    Term.(const run $ classical_flag $ owl_flag)

(* Shared by `query --explain` and `explain-plan`: pretty-print the plan
   with estimated vs (after execution) actual per-step cardinalities. *)
let print_plan_text (v : Cq.Plan.view) =
  Format.printf "query: %s@." v.Cq.Plan.v_query;
  Format.printf "binding order: %s   individuals: %d   order: %s@."
    (String.concat ", " (List.map (fun x -> "?" ^ x) v.Cq.Plan.v_vars))
    v.Cq.Plan.v_individuals v.Cq.Plan.v_order;
  Format.printf "hash-join threshold: %d%s@." v.Cq.Plan.v_threshold
    (match v.Cq.Plan.v_forced with
    | None -> ""
    | Some s -> "   forced strategy: " ^ s);
  List.iteri
    (fun i (s : Cq.Plan.step_view) ->
      Format.printf "  %d. %s" (i + 1) s.Cq.Plan.sv_atom;
      if s.Cq.Plan.sv_filter then Format.printf "  [filter]"
      else
        Format.printf "  [binds %s]"
          (String.concat ", "
             (List.map (fun x -> "?" ^ x) s.Cq.Plan.sv_binds));
      Format.printf "  est_rows=%d est_probe_ns=%.0f" s.Cq.Plan.sv_est_rows
        s.Cq.Plan.sv_est_cost_ns;
      (match s.Cq.Plan.sv_strategy with
      | Some st when not s.Cq.Plan.sv_filter -> Format.printf " strategy=%s" st
      | _ -> ());
      (match (s.Cq.Plan.sv_actual_rows, s.Cq.Plan.sv_probes) with
      | Some rows, Some probes ->
          Format.printf " actual_rows=%d probes=%d" rows probes
      | _ -> ());
      Format.printf "@.")
    v.Cq.Plan.v_steps

let cq_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cq" ] ~docv:"CQ"
        ~doc:
          "Conjunctive query, e.g. '?x <- Doctor(?x), hasPatient(?x, ?y)'. \
           Variables are ?-prefixed, bare terms are individuals; without \
           '<-' every variable is projected.")

let query_cmd =
  let individual =
    Arg.(
      value
      & opt (some string) None
      & info [ "i"; "individual" ] ~docv:"NAME" ~doc:"Individual to query.")
  in
  let concept_src =
    Arg.(
      value
      & opt (some string) None
      & info [ "c"; "concept" ] ~docv:"CONCEPT"
          ~doc:"Concept expression in surface syntax.")
  in
  let explain_flag =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "With --cq: after execution, print the chosen plan with \
             estimated vs actual per-step cardinalities, probe counts and \
             the join strategies picked.")
  in
  let exactly =
    Arg.(
      value
      & opt (some string) None
      & info [ "exactly" ] ~docv:"VALUES"
          ~doc:
            "With --cq: instead of the designated answers, return the \
             tuples whose conjunction takes exactly one of the given \
             truth values (comma-separated from t, f, B/TOP, N/BOT) — \
             e.g. --exactly B lists the exactly-contradictory matches, \
             --exactly B,N everything undecided-or-conflicting.")
  in
  let run ind csrc cq explain exactly args =
    (* the flags are checked before FILE is read, as in explain *)
    match (cq, ind, csrc) with
    | Some src, _, _ ->
        let t = open_session args in
        let q = load_cq src in
        let plan = Cq.compile t q in
        let answers =
          match exactly with
          | None -> Cq.run plan
          | Some spec -> Cq.run_exactly plan ~values:(load_exactly spec)
        in
        if answers = [] then
          Format.printf "%s@."
            (if exactly = None then "no designated answers"
             else "no answers with exactly those values")
        else
          List.iter
            (fun (tuple, v) ->
              Format.printf "%s  =  %a@." (String.concat ", " tuple) Truth.pp
                v)
            answers;
        if explain then print_plan_text (Cq.explain plan);
        0
    | None, Some ind, Some csrc ->
        let t = open_session args in
        let c = load_concept csrc in
        let v = Para.instance_truth t ind c in
        Format.printf "%s : %s  =  %a@." ind (Concept.to_string c) Truth.pp v;
        (match v with
        | Truth.True -> Format.printf "supported: yes;  denied: no@."
        | Truth.False -> Format.printf "supported: no;  denied: yes@."
        | Truth.Both ->
            Format.printf "supported: yes;  denied: yes  (contradiction)@."
        | Truth.Neither -> Format.printf "supported: no;  denied: no@.");
        0
    | None, _, _ ->
        Format.eprintf
          "dl4 query: provide either --cq, or both --individual and \
           --concept@.";
        2
  in
  reasoning_cmd "query"
    ~doc:
      "Four-valued query: the Belnap value the KB supports for C(a), or the \
       designated answers of a conjunctive query (--cq)."
    Term.(
      const run $ individual $ concept_src $ cq_arg $ explain_flag $ exactly)

(* dl4 audit: the contradiction census of the KB as a dl4-audit/1
   report — the offline face of the serve daemon's [audit] op. *)
let audit_cmd =
  let top =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"K"
          ~doc:
            "Rank the $(docv) most-contradictory individuals and concepts \
             in the report.")
  in
  let exactly =
    Arg.(
      value
      & opt (some string) None
      & info [ "exactly" ] ~docv:"VALUES"
          ~doc:
            "Also list every audited fact whose exact value is in the \
             comma-separated set (from t, f, B/TOP, N/BOT), e.g. \
             --exactly B for the contradicted facts.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the report to $(docv) atomically (tmp + rename) instead \
             of stdout, so a concurrent reader never sees a torn file.")
  in
  let run top exactly out args =
    require_non_negative "top" top;
    let exactly = Option.map load_exactly exactly in
    let t = open_session args in
    let report = Audit.report_json ~top ?exactly t (Audit.census t) in
    match out with
    | None ->
        print_endline report;
        0
    | Some path -> (
        match Sink.replace path (report ^ "\n") with
        | () -> 0
        | exception Sys_error msg -> raise (Cannot_write msg))
  in
  reasoning_cmd "audit" ~cache_size:cache_size_arg
    ~doc:
      "Sweep every named individual against every atomic concept (and every \
       told role assertion) through the four-valued semantics and report the \
       KB's health as one dl4-audit/1 JSON object: per-value counts, the \
       degree-of-inconsistency ratio |TOP|/|decided|, per-concept \
       contradiction rates and the most-contradictory individuals and \
       concepts with provenance."
    Term.(const run $ top $ exactly $ out)

let classify_cmd =
  let run args =
    List.iter
      (fun (cls, direct) ->
        let lhs = String.concat " = " cls in
        match direct with
        | [] -> Format.printf "%s@." lhs
        | _ -> Format.printf "%s < %s@." lhs (String.concat ", " direct))
      (Session.taxonomy (open_session args));
    0
  in
  reasoning_cmd "classify" ~cache_size:cache_size_arg
    ~doc:
      "Reduced taxonomy under internal inclusion: equivalence classes with \
       their direct super-classes.  Classification is told-subsumer seeded \
       and DAG-pruned; with --stats, the footer's classify.tableau_tests \
       counter shows the tableau calls paid and \
       classify.told_hits/classify.dag_hits the pairs answered without one."
    (Term.const run)

let realize_cmd =
  let all =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Also print the full Belnap truth value grid (default: only the \
             most-specific types and the contradictions).")
  in
  let run all args =
    List.iter
      (fun (entry : Realize.entry) ->
        let tops =
          List.filter_map
            (fun (c, v) -> if v = Truth.Both then Some c else None)
            entry.Realize.types
        in
        Format.printf "%s : %s%s@." entry.Realize.name
          (match entry.Realize.most_specific with
          | [] -> "(no told-positive atomic type)"
          | msc -> String.concat ", " msc)
          (match tops with
          | [] -> ""
          | _ -> "  [TOP: " ^ String.concat ", " tops ^ "]");
        if all then
          List.iter
            (fun (c, v) ->
              if v <> Truth.Neither then
                Format.printf "    %-20s %a@." c Truth.pp v)
            entry.Realize.types)
      (Session.realization (open_session args)).Realize.entries;
    0
  in
  reasoning_cmd "realize" ~cache_size:cache_size_arg
    ~doc:
      "ABox realization: the most-specific atomic types of every individual \
       with their Belnap values, computed with instance checks pruned \
       through the classified hierarchy."
    Term.(const run $ all)

let update_cmd =
  let delta_args =
    Arg.(
      value & opt_all non_dir_file []
      & info [ "delta" ] ~docv:"FILE"
          ~doc:
            "Delta script to replay (repeatable; applied in order).  Each \
             file holds one or more deltas separated by lines starting with \
             ---; a delta is one statement per line in the surface syntax, \
             prefixed with + (add) or - (retract an ABox assertion).  TBox \
             changes are monotone additions.")
  in
  (* parse failures report and return [None] instead of exiting so the
     error path still flows through [with_obs]'s sink flush — the
     --stats footer and --metrics-json stay uniform with every other
     subcommand even when a delta script is malformed *)
  let load_deltas path =
    match Delta.parse_script (read_file path) with
    | Ok ds -> Some ds
    | Error e ->
        Format.eprintf "%s: %s@." path e;
        None
  in
  let run deltas args =
    let kb = load_kb4 args.file in
    if deltas = [] then begin
      Format.eprintf "update: pass at least one --delta FILE@.";
      2
    end
    else begin
      let scripts = List.map load_deltas deltas in
      if List.exists Option.is_none scripts then 2
      else begin
        let s = open_session ~kb args in
        (* warm the stack before replaying so the per-delta stats show
           what selective invalidation retains *)
        Format.printf "initial: %s, %d contradictions@."
          (if Para.satisfiable s then "satisfiable" else "UNSATISFIABLE")
          (List.length (Para.contradictions s));
        let n = ref 0 in
        List.iter
          (fun ds ->
            List.iter
              (fun d ->
                incr n;
                let st = Session.apply s d in
                Format.printf "delta %d: %a@." !n Oracle.pp_apply_stats st)
              ds)
          (List.filter_map Fun.id scripts);
        Format.printf "final: %s, %d contradictions@."
          (if Para.satisfiable s then "satisfiable" else "UNSATISFIABLE")
          (List.length (Para.contradictions s));
        if Para.satisfiable s then 0 else 1
      end
    end
  in
  reasoning_cmd "update" ~cache_size:cache_size_arg
    ~doc:
      "Replay incremental KB deltas against a live session.  Each delta is \
       applied in place; cached verdicts whose provenance avoids the touched \
       individuals and concepts are retained, the rest are selectively \
       evicted (see the per-delta stats lines)."
    Term.(const run $ delta_args)

let transform_cmd =
  let run file =
    let kb = load_kb4 file in
    print_string (Surface.kb_to_string (Transform.kb kb));
    0
  in
  Cmd.v
    (Cmd.info "transform"
       ~doc:
         "Print the classical induced KB (Definition 7) in surface syntax \
          (parseable with --classical).")
    Term.(const run $ file_arg)

let models_cmd =
  let extra =
    Arg.(
      value & opt int 0
      & info [ "extra" ] ~docv:"N" ~doc:"Anonymous domain elements to add.")
  in
  let limit =
    Arg.(
      value & opt int 10
      & info [ "limit" ] ~docv:"N" ~doc:"Maximum number of models to print.")
  in
  (* 4^12 is tweety's space at --extra 0; past it a search can walk for
     minutes before its first model *)
  let max_space = 12 in
  let run file extra limit =
    require_non_negative "limit" limit;
    require_non_negative "extra" extra;
    let kb = load_kb4 file in
    let space =
      Enum.interps4_space ~signature:(Kb4.signature kb) ~extra
        ~data_domain:(Enum.kb_data_values kb.Kb4.abox) ()
    in
    if space > max_space then begin
      Format.eprintf
        "dl4 models: resource limit: 4^%d interpretations to search, over \
         4^%d@."
        space max_space;
      3
    end
    else begin
      let count = ref 0 in
      Seq.iter
        (fun m ->
          incr count;
          Format.printf "--- model %d ---@.%a@." !count Interp4.pp m)
        (Seq.take limit (Enum.models4 ~extra kb));
      (* fewer models than asked for: the enumeration ran to its end *)
      if !count = 0 && limit > 0 then
        Format.printf "no four-valued model over this domain@.";
      0
    end
  in
  Cmd.v
    (Cmd.info "models"
       ~doc:
         "Enumerate four-valued models over the KB's individuals (plus \
          --extra anonymous elements).  Exponential; small KBs only: a \
          search over more than 4^12 interpretations stops before it \
          starts, as a resource limit (exit 3).")
    Term.(const run $ file_arg $ extra $ limit)

let retrieve_cmd =
  let concept_src =
    Arg.(
      required
      & opt (some string) None
      & info [ "c"; "concept" ] ~docv:"CONCEPT"
          ~doc:"Concept expression in surface syntax.")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Also print individuals with value f or BOT (default: only \
                designated answers).")
  in
  let run csrc all args =
    let kb = load_kb4 args.file in
    let c = load_concept csrc in
    List.iter
      (fun (a, v) ->
        if all || Truth.designated v then
          Format.printf "  %-20s %a@." a Truth.pp v)
      (Para.retrieve (open_session ~kb args) c);
    0
  in
  reasoning_cmd "retrieve"
    ~doc:
      "Four-valued instance retrieval: the Belnap value of C(a) for every \
       named individual."
    Term.(const run $ concept_src $ all)

let explain_cmd =
  let individual =
    Arg.(
      value
      & opt (some string) None
      & info [ "i"; "individual" ] ~docv:"NAME" ~doc:"Individual to explain.")
  in
  let concept_src =
    Arg.(
      value
      & opt (some string) None
      & info [ "c"; "concept" ] ~docv:"CONCEPT" ~doc:"Concept expression.")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Enumerate several justifications (up to 10).")
  in
  let run file ind csrc all max_nodes obs =
    with_obs ~cmd:"explain" obs (fun () ->
        let session kb =
          Para.create ~config:{ Oracle.default_config with max_nodes } kb
        in
        match (ind, csrc) with
        | Some ind, Some csrc ->
            let kb = load_kb4 file in
            let c = load_concept csrc in
            let t = session kb in
            let v = Para.instance_truth t ind c in
            Format.printf "%s : %s = %a@." ind (Concept.to_string c) Truth.pp
              v;
            let queries =
              match v with
              | Truth.True -> [ Explain.Instance (ind, c) ]
              | Truth.False -> [ Explain.Not_instance (ind, c) ]
              | Truth.Both -> [ Explain.Contradiction (ind, c) ]
              | Truth.Neither -> []
            in
            if queries = [] then
              Format.printf "nothing to explain: no supported information@.";
            List.iter
              (fun q ->
                let js =
                  if all then Explain.all_justifications ~max_nodes kb q
                  else Option.to_list (Explain.justification ~max_nodes kb q)
                in
                List.iteri
                  (fun i j ->
                    Format.printf "@.justification %d for %a:@.%s" (i + 1)
                      Explain.pp_query q
                      (Surface.kb4_to_string j))
                  js)
              queries;
            0
        | None, None ->
            let explained =
              Explain.contradictions_explained ~max_nodes
                (session (load_kb4 file))
            in
            if explained = [] then
              Format.printf "no localized contradictions@."
            else
              List.iter
                (fun (a, cname, j) ->
                  Format.printf "%s : %s = TOP, because:@.%s@." a cname
                    (Surface.kb4_to_string j))
                explained;
            0
        | _ ->
            Format.eprintf
              "dl4 explain: provide both --individual and --concept, or \
               neither@.";
            2)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Pinpoint the axioms responsible for an answer (or for every \
          localized contradiction when no query is given).")
    Term.(
      const run $ file_arg $ individual $ concept_src $ all $ max_nodes_arg
      $ obs_term)

let explain_plan_cmd =
  let cq_required =
    Arg.(
      required
      & opt (some string) None
      & info [ "cq" ] ~docv:"CQ"
          ~doc:
            "Conjunctive query to plan, e.g. '?x <- Doctor(?x), \
             hasPatient(?x, ?y)'.")
  in
  let join_arg =
    let join_conv =
      Arg.conv
        ( (fun s ->
            match Cq.Plan.strategy_of_name s with
            | Some st -> Ok st
            | None -> Error (`Msg ("unknown join strategy " ^ s))),
          fun ppf st ->
            Format.pp_print_string ppf (Cq.Plan.strategy_name st) )
    in
    Arg.(
      value
      & opt (some join_conv) None
      & info [ "join" ] ~docv:"S"
          ~doc:
            "Force every extension step to one join strategy: $(b,nested) \
             or $(b,hash) (default: adaptive by intermediate binding-set \
             cardinality).")
  in
  let threshold_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "threshold" ] ~docv:"N"
          ~doc:
            "Binding-set cardinality at which extension steps switch from \
             nested-loop to hash-join (default 8).")
  in
  let order_arg =
    let order_conv =
      Arg.conv
        ( (fun s ->
            match s with
            | "cost" -> Ok `Cost
            | "syntactic" -> Ok `Syntactic
            | _ -> Error (`Msg ("unknown order " ^ s))),
          fun ppf o ->
            Format.pp_print_string ppf
              (match o with `Cost -> "cost" | `Syntactic -> "syntactic") )
    in
    Arg.(
      value & opt order_conv `Cost
      & info [ "order" ] ~docv:"O"
          ~doc:
            "Atom order: $(b,cost) (default, cheapest-first by estimated \
             selectivity × probe cost) or $(b,syntactic) (body order — the \
             bench baseline).")
  in
  let execute_flag =
    Arg.(
      value & flag
      & info [ "execute" ]
          ~doc:
            "Run the plan before printing it, so the description carries \
             actual per-step cardinalities, probe counts and the join \
             strategies picked.")
  in
  let text_flag =
    Arg.(
      value & flag
      & info [ "text" ]
          ~doc:
            "Human-readable rendering instead of the default single-line \
             dl4-plan/1 JSON.")
  in
  let run cqsrc join threshold order execute text args =
    let kb = load_kb4 args.file in
    let q = load_cq cqsrc in
    let plan =
      Cq.compile ?threshold ?force:join ~order (open_session ~kb args) q
    in
    if execute then ignore (Cq.run plan : (string list * Truth.t) list);
    if text then print_plan_text (Cq.explain plan)
    else print_endline (Cq.explain_json plan);
    0
  in
  reasoning_cmd "explain-plan"
    ~doc:
      "Compile a conjunctive query into its cost-based execution plan and \
       print the stable machine-readable description (dl4-plan/1) without \
       running it (unless --execute)."
    Term.(
      const run $ cq_required $ join_arg $ threshold_arg $ order_arg
      $ execute_flag $ text_flag)

let repair_cmd =
  let run file =
    let kb = load_kb file in
    print_string (Surface.kb_to_string (Baselines.stratified_repair kb));
    0
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Print a maximal consistent sub-KB of a classical KB \
          (stratification baseline; TBox preferred over ABox).")
    Term.(const run $ file_arg)

let stats_cmd =
  let run file classical owl =
    let stats =
      if owl then Kb_stats.of_kb (load_owl file)
      else if classical then Kb_stats.of_kb (load_kb file)
      else Kb_stats.of_kb4 (load_kb4 file)
    in
    Format.printf "%a@." Kb_stats.pp stats;
    0
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Knowledge-base metrics and DL expressivity (e.g. SHOIN(D)).")
    Term.(const run $ file_arg $ classical_flag $ owl_flag)

let fragment_cmd =
  let run file classical owl =
    let verdict =
      if classical || owl then
        let kb = if owl then load_owl file else load_kb file in
        match Fragment.check kb with
        | Fragment.Eligible -> Ok ()
        | Fragment.Ineligible { offender; reason } ->
            let axiom =
              match offender with
              | Fragment.Tbox ax -> Format.asprintf "%a" Axiom.pp_tbox_axiom ax
              | Fragment.Abox ax -> Format.asprintf "%a" Axiom.pp_abox_axiom ax
            in
            Error (axiom, reason)
      else
        match Fragment.check_kb4 (load_kb4 file) with
        | Ok () -> Ok ()
        | Error (offender, reason) ->
            let axiom =
              match offender with
              | `Tbox ax -> Format.asprintf "%a" Kb4.pp_tbox_axiom ax
              | `Abox ax -> Format.asprintf "%a" Axiom.pp_abox_axiom ax
            in
            Error (axiom, reason)
    in
    match verdict with
    | Ok () ->
        Format.printf
          "Horn fragment: eligible@.the completion backend decides every \
           routed query for this KB (--backend auto routes to it)@.";
        0
    | Error (axiom, reason) ->
        Format.printf "Horn fragment: NOT eligible (%s)@." reason;
        Format.printf "first offending axiom:@.  | %s@." axiom;
        Format.printf
          "queries on this KB take the tableau backend (--backend horn \
           would fail)@.";
        1
  in
  Cmd.v
    (Cmd.info "fragment"
       ~doc:
         "Classify the KB against the Horn/EL fragment the completion \
          backend decides.  In four-valued mode (the default) the verdict \
          is about the transformed classical KB of Definition 7, but the \
          offending axiom reported is the four-valued axiom whose \
          translation breaks the fragment.  Exits 0 when eligible, 1 when \
          not.")
    Term.(const run $ file_arg $ classical_flag $ owl_flag)

let convert_cmd =
  let to_owl =
    Arg.(
      value & flag
      & info [ "to-owl" ]
          ~doc:"Convert dl4 surface syntax (classical mode, <<) to OWL \
                functional syntax.")
  in
  let from_owl =
    Arg.(
      value & flag
      & info [ "from-owl" ]
          ~doc:"Convert OWL functional syntax to dl4 surface syntax.")
  in
  let run file to_owl from_owl =
    if to_owl then begin
      print_string (Owl_functional.to_functional (load_kb file));
      0
    end
    else if from_owl then begin
      print_string (Surface.kb_to_string (load_owl file));
      0
    end
    else begin
      Format.eprintf "convert: pass --to-owl or --from-owl@.";
      2
    end
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Convert between the dl4 surface syntax and OWL 2 \
             functional-style syntax.")
    Term.(const run $ file_arg $ to_owl $ from_owl)

(* ------------------------------------------------------------------ *)
(* dl4 profile — offline analysis of the diagnostic artefacts the other
   subcommands write: a --metrics-json registry dump, a --trace Chrome
   timeline, a --slow-log JSONL file and a --flight recorder dump. *)

let profile_cmd =
  let metrics =
    Arg.(
      value
      & opt (some non_dir_file) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Metrics registry JSON written by --metrics-json.")
  in
  let trace =
    Arg.(
      value
      & opt (some non_dir_file) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Chrome trace_event timeline written by --trace.")
  in
  let slow =
    Arg.(
      value
      & opt (some non_dir_file) None
      & info [ "slow-log" ] ~docv:"FILE"
          ~doc:"Slow-query JSONL log written by --slow-log.")
  in
  let flight =
    Arg.(
      value
      & opt (some non_dir_file) None
      & info [ "flight" ] ~docv:"FILE"
          ~doc:"Flight-recorder dump written by --flight.")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"K" ~doc:"Rows per hotspot table.")
  in
  let parse_json path =
    match Json_lite.parse (read_file path) with
    | Ok j -> Some j
    | Error e ->
        Format.eprintf "%s: %s@." path e;
        None
  in
  let num j = Option.value ~default:Float.nan (Json_lite.to_num j) in
  let mem_num name j =
    match Json_lite.member name j with Some v -> num v | None -> Float.nan
  in
  let mem_str name j =
    match Json_lite.member name j with
    | Some v -> Option.value ~default:"" (Json_lite.to_str v)
    | None -> ""
  in
  let take k l = List.filteri (fun i _ -> i < k) l in
  let ms ns = ns /. 1e6 in
  (* [name.count]/[name.sum_ns]/[name.buckets] triples back into
     histograms; every other numeric key is a counter or gauge. *)
  let profile_metrics top j =
    let kvs = match j with Json_lite.Obj kvs -> kvs | _ -> [] in
    let strip key suffix =
      if String.ends_with ~suffix key then
        Some (String.sub key 0 (String.length key - String.length suffix))
      else None
    in
    let hist = Hashtbl.create 16 in
    let hist_field key suffix =
      match strip key suffix with
      | None -> None
      | Some base ->
          if not (Hashtbl.mem hist base) then
            Hashtbl.add hist base (ref 0, ref 0.0, ref []);
          Some (Hashtbl.find hist base)
    in
    let scalars =
      List.filter
        (fun (key, v) ->
          match hist_field key ".count" with
          | Some (c, _, _) ->
              c := int_of_float (num v);
              false
          | None -> (
              match hist_field key ".sum_ns" with
              | Some (_, s, _) ->
                  s := num v;
                  false
              | None -> (
                  match hist_field key ".buckets" with
                  | Some (_, _, b) ->
                      (match v with
                      | Json_lite.Arr pairs ->
                          b :=
                            List.filter_map
                              (function
                                | Json_lite.Arr [ i; c ] ->
                                    Some
                                      (int_of_float (num i),
                                       int_of_float (num c))
                                | _ -> None)
                              pairs
                      | _ -> ());
                      false
                  | None -> true)))
        kvs
    in
    let hists =
      Hashtbl.fold (fun base (c, s, b) acc -> (base, !c, !s, !b) :: acc) hist []
      |> List.sort (fun (_, _, s1, _) (_, _, s2, _) -> compare s2 s1)
    in
    if hists <> [] then begin
      Format.printf "@.timings (from log2 buckets; quantiles exact only at \
                     bucket boundaries, within 2x inside):@.";
      Format.printf "  %-34s %9s %11s %9s %9s %9s %9s@." "histogram" "count"
        "total_ms" "mean_ms" "p50_ms" "p90_ms" "p99_ms";
      List.iter
        (fun (base, count, sum_ns, buckets) ->
          let q p = ms (Obs.quantile_of_buckets buckets p) in
          Format.printf "  %-34s %9d %11.2f %9.3f %9.3f %9.3f %9.3f@." base
            count (ms sum_ns)
            (if count = 0 then 0.0 else ms (sum_ns /. float_of_int count))
            (q 0.5) (q 0.9) (q 0.99))
        (take top hists)
    end;
    let counters =
      List.filter_map
        (fun (key, v) ->
          let x = num v in
          if Float.is_nan x || x = 0.0 then None else Some (key, x))
        scalars
      |> List.sort (fun (_, a) (_, b) -> compare b a)
    in
    if counters <> [] then begin
      Format.printf "@.top counters/gauges:@.";
      List.iter
        (fun (key, v) -> Format.printf "  %-44s %14.0f@." key v)
        (take top counters)
    end
  in
  (* hotspots by inclusive span time: total/call-count per span name,
     and the per-category split of the total recorded time *)
  let profile_trace top j =
    let events =
      match Json_lite.member "traceEvents" j with
      | Some (Json_lite.Arr l) -> l
      | _ -> []
    in
    let by_name = Hashtbl.create 16 and by_cat = Hashtbl.create 8 in
    let add tbl key dur =
      let c, t =
        match Hashtbl.find_opt tbl key with Some x -> x | None -> (0, 0.0)
      in
      Hashtbl.replace tbl key (c + 1, t +. dur)
    in
    List.iter
      (fun e ->
        let dur_us = mem_num "dur" e in
        if not (Float.is_nan dur_us) then begin
          add by_name (mem_str "name" e) dur_us;
          add by_cat (mem_str "cat" e) dur_us
        end)
      events;
    let rows tbl =
      Hashtbl.fold (fun k (c, t) acc -> (k, c, t) :: acc) tbl []
      |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
    in
    let names = rows by_name in
    Format.printf "@.span hotspots (inclusive time over %d events):@."
      (List.length events);
    Format.printf "  %-34s %9s %11s %11s@." "span" "calls" "total_ms"
      "mean_ms";
    List.iter
      (fun (name, calls, total_us) ->
        Format.printf "  %-34s %9d %11.2f %11.3f@." name calls
          (total_us /. 1e3)
          (total_us /. 1e3 /. float_of_int calls))
      (take top names);
    let cats = rows by_cat in
    let grand = List.fold_left (fun a (_, _, t) -> a +. t) 0.0 cats in
    if grand > 0.0 then begin
      Format.printf "@.by category:@.";
      List.iter
        (fun (cat, _, total_us) ->
          Format.printf "  %-34s %11.2f ms  %5.1f%%@." cat (total_us /. 1e3)
            (100.0 *. total_us /. grand))
        cats
    end
  in
  let profile_slow top path =
    let lines =
      String.split_on_char '\n' (read_file path)
      |> List.filter (fun l -> String.trim l <> "")
    in
    let records =
      List.filter_map (fun l -> Result.to_option (Json_lite.parse l)) lines
    in
    Format.printf "@.slow queries (%d records, %d parsed):@."
      (List.length lines) (List.length records);
    Format.printf "  %-10s %-44s %-8s %9s %7s %8s@." "wall_ms" "query"
      "backend" "nodes" "runs" "branches";
    let sorted =
      List.sort
        (fun a b -> compare (mem_num "wall_ms" b) (mem_num "wall_ms" a))
        records
    in
    List.iter
      (fun r ->
        Format.printf "  %-10.2f %-44s %-8s %9.0f %7.0f %8.0f@."
          (mem_num "wall_ms" r)
          (mem_str "query" r) (mem_str "backend" r) (mem_num "nodes" r)
          (mem_num "runs" r)
          (mem_num "branches" r))
      (take top sorted)
  in
  (* the dl4-flight/1 [domains] array holds the one ring *)
  let profile_flight top j =
    let rings =
      match Json_lite.member "domains" j with
      | Some (Json_lite.Arr l) -> l
      | _ -> []
    in
    let sum field =
      List.fold_left (fun n r -> n + int_of_float (mem_num field r)) 0 rings
    in
    let events =
      List.concat_map
        (fun r ->
          match Json_lite.member "events" r with
          | Some (Json_lite.Arr evs) -> evs
          | _ -> [])
        rings
    in
    let kinds = Hashtbl.create 16 in
    List.iter
      (fun e ->
        let kind = mem_str "kind" e in
        Hashtbl.replace kinds kind
          (1 + Option.value ~default:0 (Hashtbl.find_opt kinds kind)))
      events;
    Format.printf
      "@.flight recording (%s): %d events recorded, %d rotated out@."
      (mem_str "schema" j) (sum "total") (sum "dropped");
    List.iter
      (fun e ->
        if mem_str "kind" e = "trip" then
          Format.printf "  TRIP at +%.3f ms: %s@." (ms (mem_num "ns" e))
            (mem_str "note" e))
      events;
    let by_kind =
      Hashtbl.fold (fun k c acc -> (k, c) :: acc) kinds []
      |> List.sort (fun (_, a) (_, b) -> compare b a)
    in
    Format.printf "  retained events by kind:@.";
    List.iter
      (fun (k, c) -> Format.printf "    %-32s %9d@." k c)
      (take top by_kind)
  in
  let run metrics trace slow flight top =
    if metrics = None && trace = None && slow = None && flight = None then begin
      Format.eprintf
        "profile: pass at least one of --metrics, --trace, --slow-log, \
         --flight@.";
      2
    end
    else begin
      let failed = ref false in
      let with_file path f =
        match parse_json path with
        | Some j -> f j
        | None -> failed := true
      in
      Option.iter (fun p -> with_file p (profile_metrics top)) metrics;
      Option.iter (fun p -> with_file p (profile_trace top)) trace;
      Option.iter (profile_slow top) slow;
      Option.iter (fun p -> with_file p (profile_flight top)) flight;
      if !failed then 2 else 0
    end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Analyse diagnostic artefacts offline: hotspot tables and \
          p50/p90/p99 latencies from a --metrics-json dump, inclusive span \
          hotspots from a --trace timeline, the slowest verdicts of a \
          --slow-log file and the event mix of a --flight recording.")
    Term.(const run $ metrics $ trace $ slow $ flight $ top)

(* ------------------------------------------------------------------ *)
(* dl4 snapshot / serve / client — the persistent-store subsystem. *)

let snapshot_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"SNAP"
          ~doc:"Snapshot file to write (conventionally *.snap).")
  in
  let cold =
    Arg.(
      value & flag
      & info [ "cold" ]
          ~doc:
            "Skip warming: snapshot only the transformed KB and whatever \
             state exists (useful to freeze a session's exact state).  By \
             default the session is warmed first — consistency, the full \
             atomic truth grid and the classification index — so restored \
             sessions answer atomic queries with zero tableau calls.")
  in
  let run out cold args =
    let s = open_session args in
    if not cold then warm_session s;
    let snap = Store.capture s in
    match Store.save snap out with
    | Error e ->
        Format.eprintf "snapshot: %s@." (Store.error_to_string e);
        2
    | Ok () ->
        Format.printf "wrote %s@.%a@." out Store.pp_summary snap;
        0
  in
  reasoning_cmd "snapshot" ~cache_size:cache_size_arg
    ~doc:
      "Build (and by default warm) a session over the KB and freeze it to a \
       versioned snapshot file.  Any subcommand can then warm-start from it \
       with --from-snapshot; 'dl4 serve' can load and autosave it."
    Term.(const run $ out $ cold)

let serve_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket path to listen on (created, and removed \
                on shutdown).")
  in
  let snapshot_to =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot-to" ] ~docv:"SNAP"
          ~doc:
            "Autosave target: the daemon snapshots its warm state here \
             when idle (see --idle-save), on the 'snapshot' request and at \
             shutdown.  Defaults to the --from-snapshot path when that is \
             given.")
  in
  let idle_save =
    Arg.(
      value & opt float 30.0
      & info [ "idle-save" ] ~docv:"SEC"
          ~doc:
            "Seconds of idle traffic after which a dirty session (new \
             verdicts or applied deltas since the last save) is \
             autosaved.  0 disables the idle tick.")
  in
  let cold =
    Arg.(
      value & flag
      & info [ "cold" ]
          ~doc:"Do not pre-warm the session before serving (default: warm \
                consistency, the atomic truth grid and classification).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write a Prometheus-style text exposition of the daemon's \
             telemetry registry to $(docv), atomically (tmp + rename), \
             at startup, at shutdown and at most every --metrics-interval \
             seconds while serving.  Point a scraper or 'watch cat' at \
             it.")
  in
  let metrics_interval =
    Arg.(
      value & opt float 5.0
      & info [ "metrics-interval" ] ~docv:"SEC"
          ~doc:"Seconds between --metrics-out rewrites (clamped to >= \
                0.05).")
  in
  let access_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:
            "Append one JSONL line per request to $(docv): timestamp, \
             trace ID, op, outcome, wall ns, backend routes, cache hits, \
             tableau calls.  Buffered (flushed on the metrics tick and at \
             shutdown); rotated once to $(docv).1 when it would exceed \
             --access-log-rotate bytes.")
  in
  let access_log_rotate =
    Arg.(
      value
      & opt int Serve.default_access_log_max_bytes
      & info [ "access-log-rotate" ] ~docv:"BYTES"
          ~doc:"Rotate the access log when it would exceed $(docv) bytes \
                (default 16 MiB, clamped to >= 1024).")
  in
  let drift_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "drift-log" ] ~docv:"FILE"
          ~doc:
            "Track truth-value drift: bracket every 'update' request with \
             a census and append one JSONL record per delta that changed \
             any fact's exact value (e.g. t -> TOP when a delta poisons \
             the KB) to $(docv).  Arming this makes updates pay up to two \
             censuses each.")
  in
  let run socket snapshot_to idle_save cold metrics_out metrics_interval
      access_log access_log_rotate drift_log args =
    let s = open_session args in
    (* a warm-up run over a budget leaves the session sound (a tripped
       verdict is never cached, a tripped classification stays
       unbuilt), so the daemon serves and fails only the requests that
       trip again *)
    (if not cold then
       try warm_session s
       with Tableau.Resource_limit msg ->
         Format.eprintf
           "dl4 serve: warm-up stopped: resource limit: %s; serving anyway, \
            over-budget requests will fail@."
           msg);
    let snapshot_path =
      match snapshot_to with Some _ -> snapshot_to | None -> args.from_snapshot
    in
    (* the logs open in [Serve.create] and the scrape file is first
       written before [Serve.run] binds: either failing ends here, with
       no socket; after the bind nothing written raises *)
    match
      let t =
        Serve.create ?snapshot_path ?access_log
          ~access_log_max_bytes:access_log_rotate ?drift_log s
      in
      let on_listen () =
        Format.printf "dl4 serve: listening on %s (NDJSON; ops: %s)@." socket
          (String.concat " " Serve.op_names)
      in
      Serve.run ~idle_save ?metrics_out ~metrics_interval ~on_listen
        ~socket_path:socket t
    with
    | () ->
        Format.printf "dl4 serve: shut down@.";
        0
    | exception Sys_error msg -> raise (Cannot_write msg)
  in
  reasoning_cmd "serve" ~cache_size:cache_size_arg
    ~doc:
      "Long-running daemon: hold one warm session over the KB and answer \
       newline-delimited JSON requests on a Unix-domain socket.  Every \
       response carries the request's trace ID and marginal cost (tableau \
       calls, cache hits, wall time) so clients can verify they are being \
       served warm and correlate the daemon's logs.  Query it with 'dl4 \
       client' or nc, watch it with 'dl4 top', scrape it with --metrics-out."
    Term.(
      const run $ socket $ snapshot_to $ idle_save $ cold $ metrics_out
      $ metrics_interval $ access_log $ access_log_rotate $ drift_log)

let client_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Socket of a running dl4 serve.")
  in
  let request =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REQUEST"
          ~doc:"One JSON request object, e.g. \
                '{\"op\":\"query\",\"individual\":\"tweety\",\
                \"concept\":\"Fly\"}'.")
  in
  let timeout =
    Arg.(
      value & opt int 0
      & info [ "timeout" ] ~docv:"MS"
          ~doc:
            "Give up after $(docv) milliseconds waiting on the daemon \
             (connect, send or receive), exit 1 with a clear message \
             instead of hanging forever.  0 (the default) waits \
             indefinitely.")
  in
  let run socket timeout request =
    let timeout_ms = if timeout > 0 then Some timeout else None in
    match Serve.request ?timeout_ms ~socket_path:socket request with
    | response -> (
        print_endline response;
        (* a protocol-level error ("ok":false) must surface in the exit
           code — scripts and CI legs check $? and previously saw 0 *)
        match Json_lite.parse response with
        | Ok j -> (
            match Json_lite.member "ok" j with
            | Some (Json_lite.Bool true) -> 0
            | Some _ -> 1
            | None -> 0)
        | Error _ -> 0)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) ->
        Format.eprintf
          "client: %s: timed out after %d ms waiting for the daemon@." socket
          timeout;
        1
    | exception Unix.Unix_error (err, _, _) ->
        Format.eprintf "client: %s: %s@." socket (Unix.error_message err);
        2
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request line to a running 'dl4 serve' daemon and print \
          the response line (a netcat-free way to drive the protocol, \
          used by the CI smoke test).")
    Term.(const run $ socket $ timeout $ request)

(* dl4 top: poll a running daemon's [metrics] op and render a live
   terminal dashboard — the operator's view of the telemetry plane. *)
let top_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Socket of a running dl4 serve.")
  in
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SEC"
          ~doc:"Seconds between polls (clamped to >= 0.1).")
  in
  let count =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:"Render $(docv) frames, then exit 0.  0 (the default) \
                polls until interrupted or the daemon goes away.")
  in
  let no_clear =
    Arg.(
      value & flag
      & info [ "no-clear" ]
          ~doc:"Do not clear the screen between frames (append frames \
                instead) — for transcripts, pipes and CI.")
  in
  let pretty_ns ns =
    if Float.is_nan ns then "-"
    else if ns < 1e3 then Printf.sprintf "%.0fns" ns
    else if ns < 1e6 then Printf.sprintf "%.1fus" (ns /. 1e3)
    else if ns < 1e9 then Printf.sprintf "%.1fms" (ns /. 1e6)
    else Printf.sprintf "%.2fs" (ns /. 1e9)
  in
  let pretty_uptime s =
    if s < 60. then Printf.sprintf "%.0fs" s
    else if s < 3600. then Printf.sprintf "%.0fm%02.0fs" (Float.of_int (int_of_float s / 60)) (Float.rem s 60.)
    else
      Printf.sprintf "%dh%02dm" (int_of_float s / 3600)
        (int_of_float s mod 3600 / 60)
  in
  let num ~default name j =
    match Option.bind (Json_lite.member name j) Json_lite.to_num with
    | Some f -> f
    | None -> default
  in
  let render socket j cache =
    let uptime = num ~default:0.0 "uptime_s" j in
    let requests = int_of_float (num ~default:0.0 "requests" j) in
    let errors = int_of_float (num ~default:0.0 "errors" j) in
    let hits = num ~default:0.0 "hits" cache in
    let misses = num ~default:0.0 "misses" cache in
    let hit_rate =
      if hits +. misses <= 0.0 then Float.nan
      else 100.0 *. hits /. (hits +. misses)
    in
    Format.printf "dl4 top — %s — up %s — %d requests (%d errors) — cache hit rate %s@."
      socket (pretty_uptime uptime) requests errors
      (if Float.is_nan hit_rate then "-"
       else Printf.sprintf "%.1f%%" hit_rate);
    (* the KB-health row: present once the daemon has refreshed its
       snapshot; census numbers appear after the first audit *)
    (match Json_lite.member "kb" j with
    | Some kb ->
        let kint name = int_of_float (num ~default:0.0 name kb) in
        let truth =
          match Json_lite.member "truth" kb with
          | Some (Json_lite.Obj fields) ->
              Printf.sprintf " — truth %s — inconsistency %.2f%%"
                (String.concat " "
                   (List.map
                      (fun (v, n) ->
                        Printf.sprintf "%s:%.0f" v
                          (Option.value ~default:0.0 (Json_lite.to_num n)))
                      fields))
                (100.0 *. num ~default:0.0 "inconsistency_ratio" kb)
          | _ -> ""
        in
        Format.printf
          "  KB: %d individuals — %d tbox + %d abox axioms — %d cached \
           verdicts%s@."
          (kint "individuals") (kint "tbox_axioms") (kint "abox_axioms")
          (kint "cached_verdicts") truth
    | None -> ());
    Format.printf "@.  %-10s %6s %5s %10s %10s %10s   %s@." "OP" "REQ" "ERR"
      "P50" "P90" "P99" "ROUTES";
    let ops =
      match Option.bind (Json_lite.member "ops" j) Json_lite.to_list with
      | Some l -> l
      | None -> []
    in
    List.iter
      (fun op ->
        let name =
          Option.value ~default:"?"
            (Option.bind (Json_lite.member "op" op) Json_lite.to_str)
        in
        let counter_mix field =
          match Json_lite.member field op with
          | Some (Json_lite.Obj fields) ->
              String.concat "  "
                (List.map
                   (fun (b, v) ->
                     Printf.sprintf "%s %.0f" b
                       (Option.value ~default:0.0 (Json_lite.to_num v)))
                   fields)
          | _ -> ""
        in
        let routes =
          match (counter_mix "routes", counter_mix "strategies") with
          | r, "" -> r
          | "", s -> s
          | r, s -> r ^ "  " ^ s
        in
        Format.printf "  %-10s %6.0f %5.0f %10s %10s %10s   %s@." name
          (num ~default:0.0 "requests" op)
          (num ~default:0.0 "errors" op)
          (pretty_ns (num ~default:Float.nan "p50_ns" op))
          (pretty_ns (num ~default:Float.nan "p90_ns" op))
          (pretty_ns (num ~default:Float.nan "p99_ns" op))
          routes)
      ops;
    Format.printf "@."
  in
  let run socket interval count no_clear =
    let interval = Float.max 0.1 interval in
    let poll () =
      match
        Serve.request ~timeout_ms:5000 ~socket_path:socket "{\"op\":\"metrics\"}"
      with
      | response -> (
          match Json_lite.parse response with
          | Error msg -> Error (Printf.sprintf "unparsable response: %s" msg)
          | Ok j -> (
              match Json_lite.member "ok" j with
              | Some (Json_lite.Bool true) -> (
                  match Json_lite.member "metrics" j with
                  | Some m ->
                      let cache =
                        Option.value ~default:Json_lite.Null
                          (Json_lite.member "cache" j)
                      in
                      Ok (m, cache)
                  | None -> Error "response carries no metrics object")
              | _ ->
                  let msg =
                    Option.value ~default:"daemon refused the metrics op"
                      (Option.bind (Json_lite.member "error" j)
                         Json_lite.to_str)
                  in
                  Error msg))
      | exception Unix.Unix_error (err, _, _) ->
          Error (Unix.error_message err)
    in
    let rec frames n =
      match poll () with
      | Error msg ->
          Format.eprintf "dl4 top: %s: %s@." socket msg;
          2
      | Ok (m, cache) ->
          if not no_clear then print_string "\027[H\027[2J";
          render socket m cache;
          if count > 0 && n + 1 >= count then 0
          else begin
            Unix.sleepf interval;
            frames (n + 1)
          end
    in
    frames 0
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard over a running 'dl4 serve' daemon: polls the \
          'metrics' op and renders per-op p50/p90/p99 latency, the \
          backend route mix, error counts, cache hit rate and uptime.")
    Term.(const run $ socket $ interval $ count $ no_clear)

let main =
  Cmd.group
    (Cmd.info "dl4" ~version:"1.0.0"
       ~doc:
         "Paraconsistent reasoning with inconsistent OWL DL ontologies via \
          four-valued description logic SHOIN(D)4.")
    [ check_cmd;
      query_cmd;
      audit_cmd;
      classify_cmd;
      realize_cmd;
      update_cmd;
      transform_cmd;
      models_cmd;
      retrieve_cmd;
      explain_cmd;
      explain_plan_cmd;
      repair_cmd;
      stats_cmd;
      fragment_cmd;
      convert_cmd;
      profile_cmd;
      snapshot_cmd;
      serve_cmd;
      client_cmd;
      top_cmd ]

let () = exit (Cmd.eval' main)
