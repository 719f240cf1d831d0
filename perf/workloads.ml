(* The three workloads, each driven in-process through dl4's public
   functions with the CLI's default settings (one closed-loop client,
   jobs 1, backend auto, the 4096-entry verdict cache, serve telemetry
   armed).

   Steadiness comes from the structure, not from luck:
   - the op sequence is a pure function of the seed and of --seconds
     (a fixed number of ops per second, never a time budget);
   - an untimed warm-up runs first;
   - each op is replayed from identical state in five interleaved passes
     (pass-major order) and its estimate is the minimum over them, which
     rejects the bursts of host contention a shared machine shows;
   - answer checks run in the first pass, after each op's timed region;
   - cold ops and serve replays run in forked children, so no state one
     op leaves behind can serve a later one. *)

let config = { Session.default_config with Session.backend = Backend.Auto }
let ms s = 1000. *. s
let work_dir = ".perf-work"

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  e2e : metric list;
  layers : metric list;
  attempted : int;
  failed : int;
  notes : string list;  (** human-readable report lines *)
}

let m name unit_ value = { name; value; unit_ }

(* ------------------------------------------------------------------ *)
(* Counters *)

let alloc_words (g : Gc.stat) =
  g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

let gc_counters (g0 : Gc.stat) (g1 : Gc.stat) =
  [ ( "gc.alloc_mb",
      (alloc_words g1 -. alloc_words g0) *. float_of_int (Sys.word_size / 8) /. 1e6 );
    ( "gc.major",
      float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) ) ]

let tableau_names =
  [ "tableau.runs"; "tableau.nodes"; "tableau.branches"; "tableau.backtracks";
    "tableau.clashes" ]

(* the primary reasoner's cells: tableau work only (the completion
   backend keeps its own) *)
let tableau_cells p =
  let st = Reasoner.stats (Para.classical_reasoner p) in
  Tableau.
    [ st.runs; st.nodes_created; st.branches_explored; st.backtracks; st.clashes ]

let horn_verdicts (t : Oracle.cost_totals) =
  Option.value ~default:0 (List.assoc_opt "horn" t.Oracle.backends)

(* engine and backend work between two probes; [t0]/[cells0] default
   to a session's zero state *)
let engine_counters ?t0 ?(cells0 = [ 0; 0; 0; 0; 0 ]) (t1 : Oracle.cost_totals)
    ~evictions ~cells1 =
  let d f = float_of_int (f t1 - Option.fold ~none:0 ~some:f t0) in
  [ ("engine.verdicts", d (fun t -> t.Oracle.verdicts));
    ("engine.served", d (fun t -> t.Oracle.cache_served));
    ("engine.evictions", float_of_int evictions);
    ( "backend.eval_ms",
      (t1.Oracle.wall_ns -. Option.fold ~none:0. ~some:(fun t -> t.Oracle.wall_ns) t0)
      /. 1e6 );
    ("backend.horn_verdicts", d horn_verdicts) ]
  @ List.map2
      (fun name (a, b) -> (name, float_of_int (b - a)))
      tableau_names (List.combine cells0 cells1)

(* Transform.kb and Fragment.check run inside Session.create and
   Store.restore; they are timed as extra calls, outside every op and
   outside the ledger *)
let extra_calls kb =
  let t0 = Stats.now () in
  let kbar = Transform.kb kb in
  let t1 = Stats.now () in
  ignore (Fragment.check kbar : Fragment.verdict);
  let t2 = Stats.now () in
  [ ("transform.kb_ms", ms (t1 -. t0)); ("horn.fragment_ms", ms (t2 -. t1)) ]

(* a span around [f] in traced runs only *)
let within ~traced sp name f = if traced then Span.within sp name f else f ()

(* run [f] and attribute the backend eval time it caused to a counted
   child of the current span *)
let with_eval ~traced sp s f =
  if not traced then f ()
  else
    let e0 = (Session.cost_totals s).Oracle.wall_ns in
    let x = f () in
    Span.counted sp "backend.eval"
      (((Session.cost_totals s).Oracle.wall_ns -. e0) /. 1e9);
    x

(* ------------------------------------------------------------------ *)
(* Cold ops: one forked child each *)

type cold_input = {
  text : string;  (** the KB file's contents *)
  cq : string;  (** the CQ text (cq-tableau only) *)
  update : string;  (** the delta applied after the timed op *)
}

type op_result = {
  wall : float;  (** s, the timed op *)
  write : float;  (** s, the timed update after it *)
  digest : string;  (** of the op's rendered output *)
  rss_kb : int;
  failure : string option;
  spans : Span.span list;  (** traced passes only *)
  counters : (string * float) list;  (** traced passes only *)
}

let failed_op msg =
  { wall = nan; write = nan; digest = ""; rss_kb = 0; failure = Some msg;
    spans = []; counters = [] }

(* the `dl4 update` step on the session the op built: parse + apply *)
let timed_update s script =
  let t0 = Stats.now () in
  (match Delta.parse script with
  | Ok d -> ignore (Session.apply s d : Oracle.apply_stats)
  | Error e -> failwith e);
  Stats.now () -. t0

(* The shared shape of a cold op: [body] runs inside the timed "op"
   span and returns the session, the parsed KB, the rendered output,
   op-specific counters and the answer check. *)
let cold_op ~traced ~check (inp : cold_input) i body =
  let sp = Span.create ~op:i in
  let within name f = within ~traced sp name f in
  let g0 = Gc.quick_stat () in
  let t0 = Stats.now () in
  let s, kb, output, extra, verify =
    within "op" (fun () ->
        let kb =
          within "parser.parse" (fun () -> Surface.parse_kb4_exn inp.text)
        in
        let s = within "engine.session" (fun () -> Session.create ~config kb) in
        let output, extra, verify = body sp s in
        (s, kb, output, extra, verify))
  in
  let wall = Stats.now () -. t0 in
  let g1 = Gc.quick_stat () in
  let counters =
    if not traced then []
    else
      gc_counters g0 g1
      @ engine_counters (Session.cost_totals s)
          ~evictions:(Oracle.cache_stats (Session.oracle s)).Verdict_cache.evictions
          ~cells1:(tableau_cells (Para.of_session s))
      @ extra_calls kb @ extra
  in
  let failure = if check then verify () else None in
  let write = timed_update s inp.update in
  { wall; write; digest = Digest.to_hex (Digest.string output);
    rss_kb = Stats.peak_rss_kb (); failure; spans = Span.spans sp; counters }

let fact_truth p = function
  | Audit.Concept_fact (a, c) -> Para.instance_truth p a (Concept.Atom c)
  | Audit.Role_fact (a, r, b) -> Para.role_truth p a r b

(* census ≡ census_naive, and the told contradictions (up to three
   facts valued ⊤) get the same value from a tableau-pinned session.
   The sample is this narrow because the tableau decides a told
   contradiction at once but explodes elsewhere on these KBs (deciding
   K̄'s consistency alone runs past 20 s); a branch budget keeps a
   surprise from stalling the run, and a tripped fact is skipped. *)
let tableau_config = { config with backend = Backend.Tableau; max_branches = 500 }

let verify_census p kb cs =
  if Audit.census_naive p <> cs then Some "census differs from census_naive"
  else
    let sample =
      List.filteri (fun k _ -> k < 3)
        (List.filter (fun (_, v) -> Truth.equal v Truth.Both) cs.Audit.cs_entries)
    in
    let tab = Para.create ~config:tableau_config kb in
    List.find_map
      (fun (f, v) ->
        match fact_truth tab f with
        | v' when Truth.equal v v' -> None
        | v' ->
            Some
              (Printf.sprintf "%s: census %s, tableau %s" (Audit.fact_to_string f)
                 (Truth.to_string v) (Truth.to_string v'))
        | exception Tableau.Resource_limit _ -> None)
      sample

let audit_op ~traced ~check inp i =
  cold_op ~traced ~check inp i (fun sp s ->
      let within name f = within ~traced sp name f in
      let p = Para.of_session s in
      let cs =
        within "audit.census" (fun () ->
            with_eval ~traced sp s (fun () -> Audit.census p))
      in
      let report = within "audit.report" (fun () -> Audit.report_json p cs) in
      ( report,
        [ ("audit.facts", float_of_int (List.length cs.Audit.cs_entries)) ],
        fun () -> verify_census p (Session.kb s) cs ))

(* the CLI's `dl4 query --cq` rendering *)
let render answers =
  if answers = [] then "no designated answers\n"
  else
    String.concat ""
      (List.map
         (fun (tuple, v) ->
           Printf.sprintf "%s  =  %s\n" (String.concat ", " tuple)
             (Truth.to_string v))
         answers)

let cq_op ~traced ~check inp i =
  cold_op ~traced ~check inp i (fun sp s ->
      let within name f = within ~traced sp name f in
      let p = Para.of_session s in
      let q, plan =
        within "core.cq_compile" (fun () ->
            match Cq.parse inp.cq with
            | Ok q -> (q, Cq.compile p q)
            | Error e -> failwith e)
      in
      let answers =
        within "core.cq_run" (fun () ->
            with_eval ~traced sp s (fun () -> Cq.run plan))
      in
      let output = within "cli.render" (fun () -> render answers) in
      let probes =
        List.fold_left
          (fun acc st -> acc + Option.value ~default:0 st.Cq.Plan.sv_probes)
          0 (Cq.explain plan).Cq.Plan.v_steps
      in
      let hash =
        Option.value ~default:0 (List.assoc_opt "hash_join" (Cq.strategy_counts plan))
      in
      ( output,
        [ ("core.cq_probes", float_of_int probes);
          ("core.cq_hash_joins", float_of_int hash) ],
        fun () ->
          if Cq.answers_naive p q = answers then None
          else Some (Printf.sprintf "Cq.run differs from answers_naive on %s" inp.cq) ))

(* ------------------------------------------------------------------ *)
(* Aggregation helpers *)

let min_over xs = List.fold_left Float.min infinity xs

(* per-op mean of a counter over the chosen traced results *)
let counter_mean results name =
  Stats.mean
    (List.map
       (fun r -> Option.value ~default:0. (List.assoc_opt name r.counters))
       results)

let counter_sum results name =
  Stats.sum
    (List.map
       (fun r -> Option.value ~default:0. (List.assoc_opt name r.counters))
       results)

(* per-op mean duration of the spans called [name] *)
let span_mean ops name =
  Stats.mean
    (List.map
       (fun spans ->
         Stats.sum
           (List.filter_map
              (fun s -> if s.Span.name = name then Some (Span.dur s) else None)
              spans))
       ops)

(* per-op mean self time of the spans that called into the backend *)
let caller_self_mean ops =
  Stats.mean
    (List.map
       (fun spans ->
         let callers =
           List.filter_map
             (fun s -> if s.Span.name = "backend.eval" then Some s.Span.parent else None)
             spans
         in
         Stats.sum
           (List.filter_map
              (fun (s, self) -> if List.mem s.Span.id callers then Some self else None)
              (Span.self_times spans)))
       ops)

let ratio a b = if b > 0. then a /. b else 0.

let tail_metric name lat =
  let permille, v, beyond = Stats.tail lat in
  (m name "ms" (ms v), Printf.sprintf "%s: %s of %d samples (%d beyond)" name
                         (Stats.percentile_name permille) (List.length lat) beyond)

(* the per-layer metric set every workload reports; layers a workload
   does not exercise read 0 *)
let layer_names =
  [ ("parser.parse_ms", "ms"); ("transform.kb_ms", "ms");
    ("horn.fragment_ms", "ms"); ("engine.session_ms", "ms");
    ("engine.verdicts", "count"); ("engine.served", "count");
    ("engine.hit_ratio", "ratio"); ("engine.evictions", "count");
    ("engine.oracle_self_ms", "ms"); ("engine.delta_evicted", "count");
    ("engine.delta_retained", "count"); ("engine.delta_retain_ratio", "ratio");
    ("engine.delta_flushes", "count"); ("engine.repay_verdicts", "count");
    ("backend.eval_ms", "ms"); ("backend.horn_share", "ratio");
    ("tableau.runs", "count"); ("tableau.nodes", "count");
    ("tableau.branches", "count"); ("tableau.backtracks", "count");
    ("tableau.clashes", "count"); ("core.cq_compile_ms", "ms");
    ("core.cq_run_ms", "ms"); ("core.cq_probes", "count");
    ("core.cq_hash_joins", "count"); ("audit.census_ms", "ms");
    ("audit.report_ms", "ms"); ("audit.facts", "count");
    ("store.decode_ms", "ms"); ("store.restore_ms", "ms");
    ("store.snapshot_bytes", "bytes"); ("store.entries", "count");
    ("serve.query_ms", "ms"); ("serve.cq_ms", "ms"); ("serve.update_ms", "ms");
    ("serve.metrics_ms", "ms"); ("serve.hit_ms", "ms");
    ("gc.alloc_mb_per_op", "MB"); ("gc.major_per_op", "count");
    ("trace.residual_pct", "%"); ("trace.overhead_pct", "%") ]

let layer_metrics values =
  List.map
    (fun (name, unit_) ->
      m name unit_ (Option.value ~default:0. (List.assoc_opt name values)))
    layer_names

(* ------------------------------------------------------------------ *)
(* Cold workloads *)

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

(* Write the corpus as KB files (+ CQ and update files) and return its
   loader: loading it is the cold workloads' set-up. *)
let corpus ~name inputs =
  let dir = Filename.concat work_dir name in
  mkdir_p dir;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let path i ext = Filename.concat dir (Printf.sprintf "op%04d.%s" i ext) in
  Array.iteri
    (fun i inp ->
      write_file (path i "dl4") inp.text;
      write_file (path i "cq") inp.cq;
      write_file (path i "delta") inp.update)
    inputs;
  fun () ->
    Array.init (Array.length inputs) (fun i ->
        { text = read_file (path i "dl4"); cq = read_file (path i "cq");
          update = read_file (path i "delta") })

(* Five interleaved passes, pass-major; a traced run alternates plain
   and traced ones.  The first pass also runs the answer checks, after
   each op's timed region. *)
let schedule ~trace =
  if trace then [ false; true; false; true; false ] else List.init 5 (fun _ -> false)

(* the untimed warm-up: the first ops, once each *)
let warmup_ops = 8

let child_op op ~traced ~check inp i =
  try Fork.run (fun () -> op ~traced ~check inp i)
  with Fork.Child_failed msg -> failed_op msg

let run_cold ~name ~trace ~op inputs =
  let load = corpus ~name inputs in
  (* set-up is sampled between passes, so one burst cannot move its
     median *)
  let setups = ref [] in
  let timed_load () =
    let t0 = Stats.now () in
    let inputs = load () in
    setups := (Stats.now () -. t0) :: !setups;
    inputs
  in
  let inputs = timed_load () in
  let n = Array.length inputs in
  Array.iteri
    (fun i inp ->
      if i < warmup_ops then ignore (child_op op ~traced:false ~check:false inp i))
    inputs;
  let schedule = schedule ~trace in
  let passes =
    List.mapi
      (fun k traced ->
        (* children inherit the parent's heap: keep it compact and alike
           across passes, so their peak RSS is the op's *)
        Gc.compact ();
        let inputs = timed_load () in
        ( traced,
          Array.mapi (fun i inp -> child_op op ~traced ~check:(k = 0) inp i) inputs ))
      schedule
  in
  let reference = snd (List.hd passes) in
  let setup_s = Stats.median !setups in
  let failures =
    List.filter_map
      (fun i ->
        let r0 = reference.(i) in
        let bad =
          match r0.failure with
          | Some msg -> Some msg
          | None ->
              List.find_map
                (fun (_, rs) ->
                  match rs.(i).failure with
                  | Some msg -> Some msg
                  | None when rs.(i).digest <> r0.digest ->
                      Some "output differs between replays"
                  | None -> None)
                passes
        in
        Option.map (fun msg -> Printf.sprintf "op %d: %s" i msg) bad)
      (List.init n Fun.id)
  in
  let failed = List.length failures in
  let plain = List.filter_map (fun (t, rs) -> if t then None else Some rs) passes in
  let traced = List.filter_map (fun (t, rs) -> if t then Some rs else None) passes in
  let per_op f passes =
    List.init n (fun i -> min_over (List.map (fun rs -> f rs.(i)) passes))
  in
  let ok x = Float.is_finite x in
  let walls = List.filter ok (per_op (fun r -> r.wall) plain) in
  let writes = List.filter ok (per_op (fun r -> r.write) plain) in
  let rss =
    List.fold_left
      (fun acc rs -> Array.fold_left (fun a r -> max a r.rss_kb) acc rs)
      0 plain
  in
  let tail, tail_note = tail_metric "tail_ms" walls in
  let e2e =
    [ m "setup_s" "s" setup_s;
      m "op_ms" "ms" (ms (Stats.median walls));
      tail;
      m "throughput_ops" "ops/s" (float_of_int (List.length walls) /. Stats.sum walls);
      m "write_ms" "ms" (ms (Stats.median writes));
      m "peak_rss_mb" "MB" (float_of_int rss /. 1024.);
      m "ok_ratio" "ratio" (1. -. (float_of_int failed /. float_of_int n)) ]
  in
  let notes =
    [ Printf.sprintf "%s: %d cold ops, %d timed passes, fail_ratio %.4f" name n
        (List.length schedule) (float_of_int failed /. float_of_int n);
      tail_note ]
    @ List.filteri (fun k _ -> k < 5) failures
  in
  let layers, layer_notes =
    match traced with
    | [] -> ([], [])
    | _ ->
        (* per op, the traced pass with the lower wall time *)
        let chosen =
          List.init n (fun i ->
              List.fold_left
                (fun best rs -> if rs.(i).wall < best.wall then rs.(i) else best)
                (List.hd traced).(i) traced)
          |> List.filter (fun r -> r.failure = None)
        in
        let ops = List.map (fun r -> r.spans) chosen in
        Span.write_json (Filename.concat work_dir (name ^ ".spans.jsonl")) ops;
        let l = Span.ledger ops in
        let ledger_lines = Span.lines name ~ops:(List.length ops) l in
        let traced_sum = Stats.sum (List.map (fun r -> r.wall) chosen) in
        let plain_sum =
          Stats.sum (List.filter ok (per_op (fun r -> r.wall) plain))
        in
        let verdicts = counter_sum chosen "engine.verdicts" in
        let served = counter_sum chosen "engine.served" in
        let values =
          [ ("parser.parse_ms", ms (span_mean ops "parser.parse"));
            ("engine.session_ms", ms (span_mean ops "engine.session"));
            ("audit.census_ms", ms (span_mean ops "audit.census"));
            ("audit.report_ms", ms (span_mean ops "audit.report"));
            ("core.cq_compile_ms", ms (span_mean ops "core.cq_compile"));
            ("core.cq_run_ms", ms (span_mean ops "core.cq_run"));
            ("engine.oracle_self_ms", ms (caller_self_mean ops));
            ("engine.hit_ratio", ratio served (served +. verdicts));
            ("backend.horn_share", ratio (counter_sum chosen "backend.horn_verdicts") verdicts);
            ("gc.alloc_mb_per_op", counter_mean chosen "gc.alloc_mb");
            ("gc.major_per_op", counter_mean chosen "gc.major");
            ("trace.residual_pct", 100. *. ratio l.Span.residual l.Span.wall);
            ("trace.overhead_pct", 100. *. (ratio traced_sum plain_sum -. 1.)) ]
          @ List.map
              (fun k -> (k, counter_mean chosen k))
              ([ "engine.verdicts"; "engine.served"; "engine.evictions";
                 "backend.eval_ms"; "transform.kb_ms"; "horn.fragment_ms";
                 "audit.facts"; "core.cq_probes"; "core.cq_hash_joins" ]
              @ tableau_names)
        in
        (layer_metrics values, ledger_lines)
  in
  { e2e; layers; attempted = n; failed; notes = notes @ layer_notes }

(* ops per second of --seconds: each op runs in five timed passes; the
   constants size a run to about --seconds of measured time on a 2-core
   x86-64 VM *)
let audit_ops_per_second = 3.0
let cq_ops_per_second = 32.0

let op_count ~seconds rate = max 12 (int_of_float (Float.round (float_of_int seconds *. rate)))

let audit_horn ~seed ~seconds ~trace =
  let n = op_count ~seconds audit_ops_per_second in
  let inputs =
    Array.init n (fun i ->
        { text = Inputs.horn_kb ~seed i; cq = "";
          update =
            Inputs.cold_update ~seed i ~ind:"i" ~con:"C" ~individuals:64
              ~concepts:Inputs.n_concepts })
  in
  run_cold ~name:"audit-horn" ~trace ~op:audit_op inputs

let cq_tableau ~seed ~seconds ~trace =
  let n = op_count ~seconds cq_ops_per_second in
  let inputs =
    Array.init n (fun i ->
        let text, individuals = Inputs.tableau_kb ~seed i in
        { text; cq = Inputs.cq_text ~seed i ~individuals;
          update =
            Inputs.cold_update ~seed i ~ind:"j" ~con:"D" ~individuals ~concepts:12 })
  in
  run_cold ~name:"cq-tableau" ~trace ~op:cq_op inputs

(* ------------------------------------------------------------------ *)
(* serve-rw: a daemon restored from a snapshot, driven through
   Serve.handle (the whole protocol; the socket adds only byte
   shuttling) by one closed-loop client *)

type req_obs = {
  lat : float;  (** s, one Serve.handle call *)
  payload : string;  (** the answer payload, for cross-replay identity *)
  verdicts : int;  (** verdicts the request computed *)
  served : int;  (** checks the cache answered *)
  eval_s : float;  (** backend eval time inside the request *)
  evictions : int;  (** cumulative cache evictions after the request *)
  evicted : int;  (** updates: verdicts the delta invalidated *)
  retained : int;
  flushed : bool;
  hash_joins : int;
  rfailure : string option;
  rspans : Span.span list;  (** traced replays only *)
  alloc_mb : float;
  majors : float;
}

type replay = {
  setup : float;  (** s: parse + Store.of_string + Store.restore + Serve.create *)
  setup_parts : (string * float) list;  (** traced replays only *)
  evictions0 : int;
  reqs : req_obs array;
  peak_kb : int;
  work : (string * float) list;  (** engine/backend counters over the trace *)
}

let rec json_to_string = function
  | Json_lite.Null -> "null"
  | Json_lite.Bool b -> string_of_bool b
  | Json_lite.Num f -> Printf.sprintf "%.17g" f
  | Json_lite.Str s -> Printf.sprintf "%S" s
  | Json_lite.Arr l -> "[" ^ String.concat "," (List.map json_to_string l) ^ "]"
  | Json_lite.Obj kv ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (json_to_string v)) kv)
      ^ "}"

let member_path path j =
  List.fold_left (fun acc k -> Option.bind acc (Json_lite.member k)) (Some j) path

let num path j =
  match member_path path j with Some (Json_lite.Num f) -> f | _ -> 0.

let inum path j = int_of_float (num path j)

(* the fields that carry a response's answer.  Trace IDs, wall times
   and cache counters legitimately differ between replays — and so do an
   update's evicted/retained counts: the CQ planner orders atoms by
   observed verdict wall times, so which verdicts a CQ leaves cached
   depends on timing (its answers never do). *)
let payload (rq : Inputs.request) j =
  let fields =
    match rq.Inputs.kind with
    | Inputs.Query | Inputs.Cq -> [ "truth"; "answers" ]
    | Inputs.Update -> [ "applied"; "flushed"; "consistency_flipped" ]
    | Inputs.Metrics -> []
  in
  String.concat ";"
    (List.map
       (fun k -> Option.fold ~none:"-" ~some:json_to_string (Json_lite.member k j))
       fields)

(* the answer a fresh session over the current KB gives, rendered as the
   daemon renders it *)
let fresh_answer p = function
  | Inputs.Pair (a, c) ->
      Some
        ( "truth",
          Json_lite.Str (Truth.to_string (Para.instance_truth p a (Concept.Atom c))) )
  | Inputs.Ground src -> (
      match Cq.parse src with
      | Error e -> failwith e
      | Ok q ->
          Some
            ( "answers",
              Json_lite.Arr
                (List.map
                   (fun (tuple, v) ->
                     Json_lite.Obj
                       [ ("tuple", Json_lite.Arr (List.map (fun a -> Json_lite.Str a) tuple));
                         ("truth", Json_lite.Str (Truth.to_string v)) ])
                   (Cq.answers p q)) ))
  | Inputs.Nothing -> None

let restore ~traced sp ~kb_text snapshot =
  let within name f = within ~traced sp name f in
  let kb = within "parser.parse" (fun () -> Surface.parse_kb4_exn kb_text) in
  let fail e = failwith (Store.error_to_string e) in
  let snap =
    within "store.decode" (fun () ->
        match Store.of_string snapshot with Ok s -> s | Error e -> fail e)
  in
  let s =
    within "store.restore" (fun () ->
        match Store.restore ~jobs:1 ~kb snap with Ok s -> s | Error e -> fail e)
  in
  (kb, snap, within "serve.create" (fun () -> Serve.create ~telemetry:true s))

(* One replay of the measured trace from a fresh restore.  With [check],
   the first read after every update and every 97th read are also
   answered by a fresh session over the daemon's current KB. *)
let replay ~traced ~check ~kb_text ~snapshot (trace : Inputs.request array) =
  let sp = Span.create ~op:(-1) in
  let t0 = Stats.now () in
  let kb, snap, srv = restore ~traced sp ~kb_text snapshot in
  let setup = Stats.now () -. t0 in
  let s = Serve.session srv in
  let p = Para.of_session s in
  let setup_parts =
    if not traced then []
    else
      List.map (fun sp -> (sp.Span.name, ms (Span.dur sp))) (Span.spans sp)
      @ extra_calls kb
      @ [ ("store.snapshot_bytes", float_of_int (String.length snapshot));
          ("store.entries", float_of_int (List.length snap.Store.s_entries)) ]
  in
  let tot0 = Session.cost_totals s and cells0 = tableau_cells p in
  let evictions0 = (Oracle.cache_stats (Session.oracle s)).Verdict_cache.evictions in
  let fresh = ref None and after_write = ref true in
  let fresh_para () =
    match !fresh with
    | Some fp -> fp
    | None ->
        let fp = Para.create ~config (Session.kb s) in
        fresh := Some fp;
        fp
  in
  let handle i (rq : Inputs.request) =
    let rs = Span.create ~op:i in
    let g0 = if traced then Some (Gc.quick_stat ()) else None in
    let t0 = Stats.now () in
    let resp =
      if not traced then Serve.handle srv rq.Inputs.line
      else
        Span.within rs "op" (fun () ->
            Span.within rs ("serve." ^ Inputs.kind_name rq.Inputs.kind) (fun () ->
                Serve.handle srv rq.Inputs.line))
    in
    let lat = Stats.now () -. t0 in
    let alloc_mb, majors =
      match g0 with
      | None -> (0., 0.)
      | Some g0 -> (
          match gc_counters g0 (Gc.quick_stat ()) with
          | [ (_, a); (_, b) ] -> (a, b)
          | _ -> (0., 0.))
    in
    (* everything below is outside the timed region *)
    let j =
      match Json_lite.parse resp with
      | Ok j -> j
      | Error e -> Json_lite.Obj [ ("ok", Json_lite.Bool false); ("error", Json_lite.Str e) ]
    in
    let eval_s = num [ "cost"; "wall_ns" ] j /. 1e9 in
    if traced then Span.counted ~parent:1 rs "backend.eval" eval_s;
    let rfailure =
      if Json_lite.member "ok" j <> Some (Json_lite.Bool true) then
        Some
          (Printf.sprintf "ok:false on %s: %s" rq.Inputs.line
             (Option.fold ~none:"" ~some:json_to_string (Json_lite.member "error" j)))
      else if rq.Inputs.kind = Inputs.Update then begin
        fresh := None;
        after_write := true;
        None
      end
      else if check && (!after_write || i mod 97 = 0) then begin
        after_write := false;
        match fresh_answer (fresh_para ()) rq.Inputs.target with
        | Some (field, want)
          when Option.map json_to_string (Json_lite.member field j)
               <> Some (json_to_string want) ->
            Some (Printf.sprintf "%s differs from a fresh session" rq.Inputs.line)
        | _ -> None
      end
      else None
    in
    { lat; payload = payload rq j; verdicts = inum [ "cost"; "verdicts" ] j;
      served = inum [ "cost"; "cache_served" ] j; eval_s;
      evictions = inum [ "cache"; "evictions" ] j; evicted = inum [ "evicted" ] j;
      retained = inum [ "retained" ] j;
      flushed = member_path [ "flushed" ] j = Some (Json_lite.Bool true);
      hash_joins = inum [ "plan"; "strategies"; "hash_join" ] j; rfailure;
      rspans = Span.spans rs; alloc_mb; majors }
  in
  let reqs = Array.mapi handle trace in
  let peak_kb = Stats.peak_rss_kb () in
  let tot1 = Session.cost_totals s in
  let evictions1 = (Oracle.cache_stats (Session.oracle s)).Verdict_cache.evictions in
  { setup; setup_parts; evictions0; reqs; peak_kb;
    work =
      engine_counters ~t0:tot0 ~cells0 tot1 ~evictions:(evictions1 - evictions0)
        ~cells1:(tableau_cells p) }

(* The snapshot: a cold daemon over the KB text answers the warm-up
   reads, untimed, and is captured the way `dl4 snapshot` saves it. *)
let build_snapshot ~kb_text (warm : Inputs.request array) =
  Fork.run (fun () ->
      let s = Session.create ~config (Surface.parse_kb4_exn kb_text) in
      let srv = Serve.create ~telemetry:true s in
      Array.iter (fun rq -> ignore (Serve.handle srv rq.Inputs.line : string)) warm;
      Store.to_string (Store.capture s))

(* requests per second of --seconds (five timed replays), and the
   warm-up prefix that fills the cache before the snapshot *)
let serve_requests_per_second = 400.
let serve_warmup = 12000

let serve_rw ~seed ~seconds ~trace =
  let n = op_count ~seconds serve_requests_per_second in
  let kb = Inputs.serve_kb () in
  let warm, reqs = Inputs.serve_trace ~seed kb ~warmup:serve_warmup ~measured:n in
  let dir = Filename.concat work_dir "serve-rw" in
  mkdir_p dir;
  write_file (Filename.concat dir "kb.dl4") kb.Inputs.text;
  write_file
    (Filename.concat dir "trace.ndjson")
    (String.concat ""
       (List.map (fun rq -> rq.Inputs.line ^ "\n") (Array.to_list (Array.append warm reqs))));
  let kb_text = read_file (Filename.concat dir "kb.dl4") in
  let snapshot = build_snapshot ~kb_text warm in
  let run ~traced ~check =
    Gc.compact ();
    Fork.run (fun () -> replay ~traced ~check ~kb_text ~snapshot reqs)
  in
  let schedule = schedule ~trace in
  let replays = List.mapi (fun k traced -> (traced, run ~traced ~check:(k = 0))) schedule in
  let reference = snd (List.hd replays) in
  let plain = List.filter_map (fun (t, r) -> if t then None else Some r) replays in
  let traced = List.filter_map (fun (t, r) -> if t then Some r else None) replays in
  let failures =
    List.filter_map
      (fun i ->
        let r0 = reference.reqs.(i) in
        let bad =
          match r0.rfailure with
          | Some msg -> Some msg
          | None ->
              List.find_map
                (fun (_, r) ->
                  match r.reqs.(i).rfailure with
                  | Some msg -> Some msg
                  | None when r.reqs.(i).payload <> r0.payload ->
                      Some "answer payload differs between replays"
                  | None -> None)
                replays
        in
        Option.map (fun msg -> Printf.sprintf "request %d: %s" i msg) bad)
      (List.init n Fun.id)
  in
  let failed = List.length failures in
  let lat_min rs i = min_over (List.map (fun r -> r.reqs.(i).lat) rs) in
  let idx pred = List.filter (fun i -> pred reqs.(i)) (List.init n Fun.id) in
  let reads = idx (fun rq -> rq.Inputs.kind <> Inputs.Update) in
  let writes = idx (fun rq -> rq.Inputs.kind = Inputs.Update) in
  let lats rs is = List.map (lat_min rs) is in
  let tail, tail_note = tail_metric "tail_ms" (lats plain reads) in
  let all_plain = lats plain (List.init n Fun.id) in
  let e2e =
    [ m "setup_s" "s" (Stats.median (List.map (fun r -> r.setup) plain));
      m "op_ms" "ms" (ms (Stats.median (lats plain reads)));
      tail;
      m "throughput_ops" "ops/s" (float_of_int n /. Stats.sum all_plain);
      m "write_ms" "ms" (ms (Stats.median (lats plain writes)));
      m "peak_rss_mb" "MB"
        (float_of_int (List.fold_left (fun a r -> max a r.peak_kb) 0 plain) /. 1024.);
      m "ok_ratio" "ratio" (1. -. (float_of_int failed /. float_of_int n)) ]
  in
  let notes =
    [ Printf.sprintf
        "serve-rw: %d requests (%d reads, %d updates) after %d warm-up reads, \
         %d timed replays, fail_ratio %.4f"
        n (List.length reads) (List.length writes) serve_warmup
        (List.length schedule) (float_of_int failed /. float_of_int n);
      tail_note ]
    @ List.filteri (fun k _ -> k < 5) failures
  in
  let layers, layer_notes =
    match traced with
    | [] -> ([], [])
    | first :: _ ->
        let obs = first.reqs in
        let chosen =
          Array.init n (fun i ->
              List.fold_left
                (fun best r -> if r.reqs.(i).lat < best.lat then r.reqs.(i) else best)
                obs.(i) traced)
        in
        let ops = Array.to_list (Array.map (fun o -> o.rspans) chosen) in
        let chosen_mean f = Stats.mean (Array.to_list (Array.map f chosen)) in
        Span.write_json (Filename.concat work_dir "serve-rw.spans.jsonl") ops;
        let l = Span.ledger ops in
        let ledger_lines = Span.lines "serve-rw" ~ops:n l in
        let fn = float_of_int n in
        let sum_i f is = float_of_int (List.fold_left (fun a i -> a + f obs.(i)) 0 is) in
        let verdicts = sum_i (fun o -> o.verdicts) reads
        and served = sum_i (fun o -> o.served) reads in
        let computing = List.filter (fun i -> obs.(i).verdicts > 0) reads in
        let kind_median k =
          match idx (fun rq -> rq.Inputs.kind = k) with
          | [] -> 0.
          | is -> ms (Stats.median (lats plain is))
        in
        (* verdicts computed by reads between consecutive updates *)
        let repay =
          let rec go acc cur = function
            | [] -> List.rev acc
            | i :: rest when reqs.(i).Inputs.kind = Inputs.Update -> go (cur :: acc) 0 rest
            | i :: rest -> go acc (cur + obs.(i).verdicts) rest
          in
          match go [] 0 (List.init n Fun.id) with
          | [] | [ _ ] -> []
          | _ :: intervals -> List.map float_of_int intervals
        in
        let evicted = sum_i (fun o -> o.evicted) writes
        and retained = sum_i (fun o -> o.retained) writes in
        let nw = float_of_int (max 1 (List.length writes)) in
        let cqs = idx (fun rq -> rq.Inputs.kind = Inputs.Cq) in
        let work k = Option.value ~default:0. (List.assoc_opt k first.work) in
        let setup k = Option.value ~default:0. (List.assoc_opt k first.setup_parts) in
        let values =
          [ ("parser.parse_ms", setup "parser.parse");
            ("transform.kb_ms", setup "transform.kb_ms");
            ("horn.fragment_ms", setup "horn.fragment_ms");
            ("store.decode_ms", setup "store.decode");
            ("store.restore_ms", setup "store.restore");
            ("store.snapshot_bytes", setup "store.snapshot_bytes");
            ("store.entries", setup "store.entries");
            ("engine.verdicts", work "engine.verdicts" /. fn);
            ("engine.served", work "engine.served" /. fn);
            ("engine.hit_ratio", ratio served (served +. verdicts));
            ( "engine.evictions",
              float_of_int (obs.(n - 1).evictions - first.evictions0) /. fn );
            ( "engine.oracle_self_ms",
              ms
                (Stats.mean
                   (List.map (fun i -> chosen.(i).lat -. obs.(i).eval_s) computing))
            );
            ("engine.delta_evicted", evicted /. nw);
            ("engine.delta_retained", retained /. nw);
            ("engine.delta_retain_ratio", ratio retained (retained +. evicted));
            ("engine.delta_flushes", sum_i (fun o -> if o.flushed then 1 else 0) writes);
            ("engine.repay_verdicts", Stats.mean repay);
            ("backend.eval_ms", work "backend.eval_ms" /. fn);
            ("backend.horn_share", ratio (work "backend.horn_verdicts") (work "engine.verdicts"));
            ( "core.cq_hash_joins",
              sum_i (fun o -> o.hash_joins) cqs /. float_of_int (max 1 (List.length cqs)) );
            ("serve.query_ms", kind_median Inputs.Query);
            ("serve.cq_ms", kind_median Inputs.Cq);
            ("serve.update_ms", kind_median Inputs.Update);
            ("serve.metrics_ms", kind_median Inputs.Metrics);
            ( "serve.hit_ms",
              ms (Stats.median (lats plain (List.filter (fun i -> obs.(i).verdicts = 0) reads)))
            );
            ("gc.alloc_mb_per_op", chosen_mean (fun o -> o.alloc_mb));
            ("gc.major_per_op", chosen_mean (fun o -> o.majors));
            ("trace.residual_pct", 100. *. ratio l.Span.residual l.Span.wall);
            ( "trace.overhead_pct",
              100. *. (ratio (fn *. chosen_mean (fun o -> o.lat)) (Stats.sum all_plain) -. 1.) ) ]
          @ List.map (fun k -> (k, work k /. fn)) tableau_names
        in
        (layer_metrics values, ledger_lines)
  in
  { e2e; layers; attempted = n; failed; notes = notes @ layer_notes }
