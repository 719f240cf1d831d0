(* The dl4 daemon: one warm Session behind a Unix-domain socket.

   Protocol: newline-delimited JSON, one request object per line, one
   response object per line, strictly in request order per connection.
   Requests never kill the daemon — malformed JSON, unknown ops and bad
   arguments all produce an [ok:false] response on the same line slot.

   The request handler is deliberately separated from the socket loop:
   [handle] maps one request line to one response line against the held
   session, so tests (and the in-process bench harness) can drive the
   full protocol without forking or touching the filesystem, and the
   socket loop stays a dumb byte shuttle. *)

(* Rotating JSONL access log ([Sink.log] with [max_bytes]): one line
   per request.  The request path only records a compact [pending]
   tuple (~100ns); JSON rendering and the writes are deferred to
   [access_drain], which runs on the idle tick, the metrics tick, [sync]
   and shutdown — so per-request overhead stays an allocation, not
   formatting + I/O (bench S11 gates this). *)
type pending = {
  p_ts : float;
  p_trace : string;
  p_op : string;
  p_id : id;
  p_ok : bool;
  p_wall_ns : float;
  p_routes : (string * int) list;
  p_cache_served : int;
  p_tableau : int;
}

(* A request id as echoed: a JSON value, or a number's own source text
   (the number rule would print 1e20 as 1e+20) *)
and id = Value of Json_lite.t | Number of string

let no_id = Value Json_lite.Null

type access = {
  a_log : Sink.log;
  mutable a_pending : pending list;  (* newest first; drained FIFO *)
}

type t = {
  session : Session.t;  (* the warm session *)
  snapshot_path : string option;  (* idle-autosave target *)
  mutable dirty : bool;
      (* has state changed (new verdicts, deltas) since the last save? *)
  mutable stop : bool;  (* set by the shutdown op; read by the loop *)
  mutable requests : int;
  plans : (string, Cq.plan) Hashtbl.t;
      (* per-query-shape plan cache for the warm daemon; cleared on
         update (a delta invalidates the told statistics plans were
         costed from) *)
  mutable census : Audit.census option;
      (* cached audit census of the current KB; invalidated on update *)
  mutable last_strategies : (string * int) list;
      (* join-strategy picks of the request being handled, for the
         telemetry tail *)
  tel : Telemetry.t option;  (* None = telemetry disarmed *)
  access : access option;
  drift : Sink.log option;
      (* census-drift JSONL: one line per applied delta that changed a
         fact's truth value, rendered and flushed inline (each one
         already paid a census) *)
}

let default_access_log_max_bytes = 16 * 1024 * 1024

let create ?snapshot_path ?(telemetry = true) ?access_log
    ?(access_log_max_bytes = default_access_log_max_bytes) ?drift_log session
    =
  { session;
    snapshot_path;
    dirty = false;
    stop = false;
    requests = 0;
    plans = Hashtbl.create 16;
    census = None;
    last_strategies = [];
    tel = (if telemetry then Some (Telemetry.create ()) else None);
    drift = Option.map Sink.log drift_log;
    access =
      Option.map
        (fun path ->
          { a_log = Sink.log ~max_bytes:(max 1024 access_log_max_bytes) path;
            a_pending = [] })
        access_log }

let session t = t.session
let stopped t = t.stop
let telemetry t = t.tel

(* ------------------------------------------------------------------ *)
(* JSON values: every response and log line is a Json_lite.t, printed
   once *)

let int = Json_lite.int
let str s = Json_lite.Str s
let strs l = Json_lite.Arr (List.map str l)
let counts l = Json_lite.Obj (List.map (fun (k, n) -> (k, int n)) l)

(* ------------------------------------------------------------------ *)
(* Access-log plumbing *)

(* Append the JSON members of [fields], without the object's braces. *)
let add_members b fields =
  let s = Json_lite.to_string (Json_lite.Obj fields) in
  Buffer.add_substring b s 1 (String.length s - 2)

(* One pending record -> one JSON line. *)
let render_line p =
  let b = Buffer.create 256 in
  (* the epoch leads with full ms precision, which the number rule's
     %.6g would truncate: printed by hand ahead of the other members *)
  let ms = int_of_float ((p.p_ts *. 1000.) +. 0.5) in
  Printf.bprintf b "{\"ts_unix\":%d.%03d," (ms / 1000) (ms mod 1000);
  add_members b [ ("trace_id", str p.p_trace); ("op", str p.p_op) ];
  Buffer.add_string b ",\"id\":";
  (match p.p_id with
  | Value id -> Json_lite.to_buffer b id
  | Number text -> Buffer.add_string b text);
  Buffer.add_char b ',';
  add_members b
    [ ("ok", Json_lite.Bool p.p_ok);
      ("wall_ns", int (int_of_float p.p_wall_ns));
      ("routes", counts p.p_routes);
      ("cache_served", int p.p_cache_served);
      ("tableau_calls", int p.p_tableau);
      ("outcome", str (if p.p_ok then "ok" else "error")) ];
  Buffer.add_char b '}';
  Buffer.contents b

(* Render and write the pending records.  Rare by design: called from
   the metrics/idle ticks, [sync] and shutdown — never per request, so
   the request path stays one allocation. *)
let access_drain a =
  match a.a_pending with
  | [] -> ()
  | newest_first ->
      a.a_pending <- [];
      List.iter
        (fun p -> Sink.line a.a_log (render_line p))
        (List.rev newest_first);
      Sink.flush a.a_log

let access_note t p =
  Option.iter (fun a -> a.a_pending <- p :: a.a_pending) t.access

let sync t = Option.iter access_drain t.access

(* ------------------------------------------------------------------ *)
(* Audit census + drift plumbing *)

(* the cached census of the current KB, computed on first demand *)
let census t =
  match t.census with
  | Some cs -> cs
  | None ->
      let cs = Audit.census t.session in
      t.census <- Some cs;
      cs

let drift_note t ~before ~after =
  Option.iter
    (fun log ->
      let trace = match Obs.trace_id () with "" -> None | s -> Some s in
      match
        Audit.drift_line ?trace ~ts_unix:(Unix.gettimeofday ()) ~before
          ~after ()
      with
      | None -> ()
      | Some line ->
          Sink.line log line;
          Sink.flush log)
    t.drift

(* KB-health snapshot for the telemetry gauges: cheap static sizes
   always, census-derived truth counts once an audit has run *)
let refresh_kb_health t =
  match t.tel with
  | None -> ()
  | Some tel ->
      let stats = Kb_stats.of_kb4 (Session.kb t.session) in
      let cache = Oracle.cache_stats (Session.oracle t.session) in
      let truth_counts, ratio =
        match t.census with
        | None -> ([], 0.)
        | Some cs ->
            ( List.map
                (fun v -> (Truth.short_string v, Audit.count cs v))
                Truth.all,
              Audit.inconsistency_ratio cs )
      in
      Telemetry.set_kb_health tel
        { Telemetry.kb_individuals = stats.Kb_stats.individuals;
          kb_tbox_axioms = stats.Kb_stats.tbox_axioms;
          kb_abox_axioms = stats.Kb_stats.abox_axioms;
          kb_cached_verdicts = cache.Verdict_cache.size;
          kb_truth_counts = truth_counts;
          kb_inconsistency_ratio = ratio }

(* ------------------------------------------------------------------ *)
(* Request accessors *)

exception Bad_request of string

let bad fmt = Format.kasprintf (fun s -> raise (Bad_request s)) fmt

let str_field name j =
  match Option.bind (Json_lite.member name j) Json_lite.to_str with
  | Some s -> s
  | None -> bad "missing or non-string field %S" name

let bool_field ~default name j =
  match Json_lite.member name j with
  | Some (Json_lite.Bool b) -> b
  | Some _ -> bad "field %S must be a boolean" name
  | None -> default

let int_field ~default name j =
  match Json_lite.member name j with
  | Some (Json_lite.Num n) -> int_of_float n
  | Some _ -> bad "field %S must be a number" name
  | None -> default

let concept_field name j =
  let text = str_field name j in
  match Surface.parse_concept text with
  | Ok c -> c
  | Error e ->
      bad "cannot parse concept %S: %s (at offset %d)" text
        e.Surface.message e.Surface.offset

(* ------------------------------------------------------------------ *)
(* Per-op payloads: each returns the response fields beyond the envelope *)

let op_check t _req =
  [ ("consistent", Json_lite.Bool (Para.satisfiable t.session)) ]

(* CQ spelling of the query op: {"op":"query","cq":"?x <- C(?x), r(?x, b)"}.
   Plans are cached per query shape (the source string) in the warm
   daemon; the compact [plan] summary rides next to the envelope's
   [cost]. *)
let op_query_cq t src =
  let cached, plan =
    match Hashtbl.find_opt t.plans src with
    | Some plan -> (true, plan)
    | None -> (
        match Cq.parse src with
        | Error msg -> bad "cannot parse cq %S: %s" src msg
        | Ok q ->
            let plan = Cq.compile t.session q in
            Hashtbl.replace t.plans src plan;
            (false, plan))
  in
  let answers = Cq.run plan in
  let strategies = Cq.strategy_counts plan in
  t.last_strategies <- strategies;
  let v = Cq.explain plan in
  let summary =
    Json_lite.Obj
      [ ("order", str v.Cq.Plan.v_order);
        ("steps", int (List.length v.Cq.Plan.v_steps));
        ("threshold", int v.Cq.Plan.v_threshold);
        ("cached", Json_lite.Bool cached);
        ("strategies", counts strategies) ]
  in
  [ ("cq", str src);
    ( "answers",
      Json_lite.Arr
        (List.map
           (fun (tuple, truth) ->
             Json_lite.Obj
               [ ("tuple", strs tuple); ("truth", str (Truth.to_string truth)) ])
           answers) );
    ("plan", summary) ]

let op_query t req =
  match Option.bind (Json_lite.member "cq" req) Json_lite.to_str with
  | Some src -> op_query_cq t src
  | None ->
      let a = str_field "individual" req in
      let c = concept_field "concept" req in
      let v = Para.instance_truth t.session a c in
      [ ("individual", str a);
        ("concept", str (Concept.to_string c));
        ("truth", str (Truth.to_string v)) ]

let op_retrieve t req =
  let c = concept_field "concept" req in
  let all = bool_field ~default:false "all" req in
  let rows =
    List.filter_map
      (fun (a, v) ->
        if all || not (Truth.equal v Truth.Neither) then
          Some
            (Json_lite.Obj
               [ ("individual", str a); ("truth", str (Truth.to_string v)) ])
        else None)
      (Para.retrieve t.session c)
  in
  [ ("concept", str (Concept.to_string c)); ("instances", Json_lite.Arr rows) ]

let op_classify t _req =
  let taxo = Session.taxonomy t.session in
  let rows =
    List.map
      (fun (cls, supers) ->
        Json_lite.Obj [ ("class", strs cls); ("supers", strs supers) ])
      taxo
  in
  [ ("taxonomy", Json_lite.Arr rows) ]

let op_update t req =
  let script = str_field "script" req in
  match Delta.parse_script script with
  | Error msg -> bad "%s" msg
  | Ok deltas ->
      (* the drift sink needs the pre-delta census; an armed sink is an
         explicit opt-in to paying one census per update when none is
         cached yet *)
      let before =
        match t.drift with None -> None | Some _ -> Some (census t)
      in
      let s =
        (* a script that trips is rolled back whole: the KB, the plans
           and the census stay as they were *)
        let not_applied = "; the update was not applied" in
        try Session.apply_all t.session deltas with
        | Tableau.Resource_limit msg ->
            raise (Tableau.Resource_limit (msg ^ not_applied))
        | Backend.Unsupported msg ->
            raise (Backend.Unsupported (msg ^ not_applied))
      in
      t.dirty <- true;
      (* told statistics changed under the cached plans; recompile lazily *)
      Hashtbl.reset t.plans;
      (* the census describes the pre-delta KB *)
      t.census <- None;
      Option.iter
        (fun before -> drift_note t ~before ~after:(census t))
        before;
      [ ("applied", int (List.length deltas));
        ("evicted", int s.Oracle.evicted);
        ("retained", int s.Oracle.retained);
        ("flushed", Json_lite.Bool s.Oracle.flushed);
        ("consistency_flipped", Json_lite.Bool s.Oracle.consistency_flipped) ]

let cache_json (c : Verdict_cache.stats) =
  Json_lite.Obj
    [ ("hits", int c.Verdict_cache.hits);
      ("misses", int c.Verdict_cache.misses);
      ("evictions", int c.Verdict_cache.evictions);
      ("size", int c.Verdict_cache.size);
      ("capacity", int c.Verdict_cache.capacity) ]

let totals_json (s : Oracle.cost_totals) =
  let w = s.Oracle.work in
  Json_lite.Obj
    [ ("verdicts", int s.Oracle.verdicts);
      ("cache_served", int s.Oracle.cache_served);
      ("slow", int s.Oracle.slow);
      ("wall_ns", Json_lite.Num s.Oracle.wall_ns);
      ("runs", int w.Tableau.runs);
      ("nodes", int w.Tableau.nodes_created);
      ("branches", int w.Tableau.branches_explored);
      ("clashes", int w.Tableau.clashes);
      ("backends", counts s.Oracle.backends) ]

let op_stats t _req =
  let totals = Session.cost_totals t.session in
  let telemetry_fields =
    match t.tel with
    | None -> []
    | Some tel ->
        [ ("uptime_s", Json_lite.Num (Telemetry.uptime_s tel));
          ( "ops",
            Json_lite.Obj
              (List.map
                 (fun v ->
                   ( v.Telemetry.v_op,
                     counts
                       [ ("requests", v.Telemetry.v_requests);
                         ("errors", v.Telemetry.v_errors) ] ))
                 (Telemetry.view tel)) ) ]
  in
  (* no "cache" field here: the response envelope already carries the
     live cache counters under that key *)
  [ ("requests", int t.requests);
    ("tableau_calls", int (Oracle.tableau_calls (Session.oracle t.session)));
    ("routes", counts totals.Oracle.backends) ]
  @ telemetry_fields
  @ [ ("totals", totals_json totals) ]

let op_metrics t _req =
  match t.tel with
  | None -> bad "telemetry is disarmed on this daemon"
  | Some tel ->
      refresh_kb_health t;
      [ ("metrics", Telemetry.json tel) ]

(* {"op":"audit","top"?:K,"exactly"?:"B,N"}: the dl4-audit/1 report of
   the cached census (computed on first demand, invalidated on update) *)
let op_audit t req =
  let top = int_field ~default:5 "top" req in
  if top < 0 then bad "field \"top\" must be non-negative";
  let exactly =
    match Option.bind (Json_lite.member "exactly" req) Json_lite.to_str with
    | None -> None
    | Some s -> (
        match Truth.set_of_string s with
        | Ok vs -> Some vs
        | Error e -> bad "%s" e)
  in
  let cached = t.census <> None in
  let report = Audit.report ~top ?exactly t.session (census t) in
  [ ("cached", Json_lite.Bool cached); ("audit", report) ]

let save_snapshot t path =
  match Store.save (Store.capture t.session) path with
  | Ok () ->
      t.dirty <- false;
      Ok ()
  | Error e -> Error (Store.error_to_string e)

let op_snapshot t req =
  let path =
    match Option.bind (Json_lite.member "path" req) Json_lite.to_str with
    | Some p -> p
    | None -> (
        match t.snapshot_path with
        | Some p -> p
        | None -> bad "no \"path\" given and no default snapshot path configured")
  in
  match save_snapshot t path with
  | Ok () -> [ ("saved", str path) ]
  | Error msg -> bad "snapshot failed: %s" msg

let op_shutdown t _req =
  t.stop <- true;
  [ ("stopping", Json_lite.Bool true) ]

(* The op vocabulary, in protocol order: [handle] dispatches on it and
   clamps telemetry labels to it, and [dl4 serve] prints it. *)
let ops =
  [ ("check", op_check);
    ("query", op_query);
    ("retrieve", op_retrieve);
    ("classify", op_classify);
    ("update", op_update);
    ("stats", op_stats);
    ("metrics", op_metrics);
    ("audit", op_audit);
    ("snapshot", op_snapshot);
    ("shutdown", op_shutdown) ]

let op_names = List.map fst ops

(* ------------------------------------------------------------------ *)
(* The envelope: every ok-response carries the request's marginal cost
   (the diff of the session cost totals and tableau-call count around
   the handler — the PR 5 accounting surface) plus the live cache
   counters, so a client can prove a query was served warm. *)

(* Marginal backend routes of one request: the diff of the session's
   per-backend computed-verdict counters around the handler. *)
let routes_diff (t0 : Oracle.cost_totals) (t1 : Oracle.cost_totals) =
  List.filter_map
    (fun (backend, n1) ->
      let n0 =
        Option.value ~default:0 (List.assoc_opt backend t0.Oracle.backends)
      in
      if n1 > n0 then Some (backend, n1 - n0) else None)
    t1.Oracle.backends

let handle t line =
  t.requests <- t.requests + 1;
  (* one trace ID per request, installed process-globally so the
     oracle's cost records, spans, slow-log lines and flight events
     produced while this request runs all carry it *)
  let trace =
    match t.tel with None -> "" | Some _ -> Obs.new_trace_id ()
  in
  if trace <> "" then Obs.set_trace_id trace;
  let start = Unix.gettimeofday () in
  let parsed = Json_lite.parse line in
  let id =
    match parsed with
    | Ok j -> (
        match Json_lite.member "id" j with
        | Some (Json_lite.Str _ as id) -> Value id
        | Some (Json_lite.Num _) -> (
            match Json_lite.member_text "id" line with
            | Some text -> Number text
            | None -> no_id)
        | _ -> no_id)
    | Error _ -> no_id
  in
  let op =
    match parsed with
    | Error _ -> None
    | Ok req -> Option.bind (Json_lite.member "op" req) Json_lite.to_str
  in
  (* the table's entry for the op; its name is also the telemetry and
     access-log label, so a misbehaving client cannot grow label
     cardinality *)
  let entry =
    Option.bind op (fun op ->
        List.find_opt (fun (name, _) -> String.equal name op) ops)
  in
  let op_label =
    match (entry, op) with
    | Some (name, _), _ -> name
    | None, Some _ -> "unknown"
    | None, None -> "malformed"
  in
  let envelope_trace = if trace = "" then [] else [ ("trace_id", str trace) ] in
  let fail msg =
    (("ok", Json_lite.Bool false) :: envelope_trace) @ [ ("error", str msg) ]
  in
  let totals0 = Session.cost_totals t.session in
  let calls0 = Oracle.tableau_calls (Session.oracle t.session) in
  t.last_strategies <- [];
  (* the success path measures totals1/calls1 for the response's cost
     object; the telemetry tail reuses that measurement instead of
     paying cost_totals again (it builds lists per call) *)
  let measured = ref None in
  let measure () =
    match !measured with
    | Some m -> m
    | None ->
        let m =
          ( Session.cost_totals t.session,
            Oracle.tableau_calls (Session.oracle t.session) )
        in
        measured := Some m;
        m
  in
  let ok, resp =
    match parsed with
    | Error msg -> (false, fail (Printf.sprintf "malformed request: %s" msg))
    | Ok req -> (
        let dispatch () =
          match entry with
          | Some (_, handler) -> handler t req
          | None -> bad "unknown op %S" (str_field "op" req)
        in
        match dispatch () with
        | payload ->
            let totals1, calls1 = measure () in
            if calls1 > calls0 then t.dirty <- true;
            let cost =
              Json_lite.Obj
                (envelope_trace
                @ [ ("tableau_calls", int (calls1 - calls0));
                    ( "verdicts",
                      int (totals1.Oracle.verdicts - totals0.Oracle.verdicts)
                    );
                    ( "cache_served",
                      int
                        (totals1.Oracle.cache_served
                        - totals0.Oracle.cache_served) );
                    ( "wall_ns",
                      Json_lite.Num
                        (totals1.Oracle.wall_ns -. totals0.Oracle.wall_ns) ) ])
            in
            let cache = cache_json (Oracle.cache_stats (Session.oracle t.session)) in
            ( true,
              (("ok", Json_lite.Bool true) :: envelope_trace)
              @ payload
              @ [ ("cost", cost); ("cache", cache) ] )
        | exception Bad_request msg -> (false, fail msg)
        | exception Tableau.Resource_limit msg ->
            (* a tripped verdict is never cached, and an update that trips
               is rolled back, so a later request within the budget
               answers soundly *)
            (false, fail ("resource limit: " ^ msg))
        | exception Backend.Unsupported msg ->
            (* a pinned backend refusing an update: rolled back too *)
            (false, fail msg)
        | exception e ->
            (* last-ditch: a handler bug must degrade to an error
               response, never to a dead daemon *)
            ( false,
              fail (Printf.sprintf "internal error: %s" (Printexc.to_string e))
            ))
  in
  (match t.tel with
  | None -> ()
  | Some tel ->
      let wall_ns = (Unix.gettimeofday () -. start) *. 1e9 in
      let totals1, calls1 = measure () in
      let routes = routes_diff totals0 totals1 in
      let cache_served =
        totals1.Oracle.cache_served - totals0.Oracle.cache_served
      in
      Telemetry.record tel ~op:op_label ~ok ~wall_ns ~routes
        ~strategies:t.last_strategies ~cache_served
        ~tableau_calls:(calls1 - calls0) ();
      (* formatting and I/O are deferred to the drain tick; the request
         path pays one record allocation (the S11 budget) *)
      access_note t
        { p_ts = start;
          p_trace = trace;
          p_op = op_label;
          p_id = id;
          p_ok = ok;
          p_wall_ns = wall_ns;
          p_routes = routes;
          p_cache_served = cache_served;
          p_tableau = calls1 - calls0 });
  match id with
  | Value id -> Json_lite.to_string (Json_lite.Obj (("id", id) :: resp))
  | Number text ->
      let rest = Json_lite.to_string (Json_lite.Obj resp) in
      "{\"id\":" ^ text ^ "," ^ String.sub rest 1 (String.length rest - 1)

(* ------------------------------------------------------------------ *)
(* Socket loop: single-threaded select over the listener and every
   client, per-client input buffers, blocking writes (responses are one
   line; clients that stop reading only stall themselves on the next
   request).  The idle timeout doubles as the autosave tick. *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      let k = Unix.write fd b off (n - off) in
      go (off + k)
  in
  go 0

let autosave t =
  if t.dirty then
    Option.iter (fun path -> ignore (save_snapshot t path)) t.snapshot_path

let run ?(idle_save = 0.) ?metrics_out ?(metrics_interval = 5.)
    ?(on_listen = ignore) ~socket_path t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let metrics_out =
    match t.tel with None -> None | Some _ -> metrics_out
  in
  let metrics_interval = Float.max 0.05 metrics_interval in
  let last_metrics = ref 0.0 in
  let write_metrics () =
    match (t.tel, metrics_out) with
    | Some tel, Some path ->
        last_metrics := Unix.gettimeofday ();
        refresh_kb_health t;
        Telemetry.write_prometheus tel path
    | _ -> ()
  in
  (* after the bind nothing written may stop the daemon: a scrape file
     that cannot be written is written again on the next tick *)
  let rewrite_metrics () = try write_metrics () with Sys_error _ -> () in
  let metrics_tick () =
    match metrics_out with
    | None -> ()
    | Some _ ->
        if Unix.gettimeofday () -. !last_metrics >= metrics_interval then begin
          rewrite_metrics ();
          (* the scrape file and the access log share the tick: both
             become externally visible on the same cadence *)
          sync t
        end
  in
  (* before the bind, a scrape file that cannot be written stops the
     daemon: [Sys_error] reaches the caller and no socket exists *)
  write_metrics ();
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX socket_path);
  Unix.listen srv 16;
  on_listen ();
  let clients : (Unix.file_descr, Buffer.t) Hashtbl.t = Hashtbl.create 8 in
  let drop fd =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Hashtbl.remove clients fd
  in
  (* consume every complete line buffered for [fd]; the tail (a partial
     line) stays for the next read *)
  let drain fd buf =
    let data = Buffer.contents buf in
    let rec go start =
      match String.index_from_opt data start '\n' with
      | None ->
          Buffer.clear buf;
          Buffer.add_substring buf data start (String.length data - start)
      | Some nl ->
          let line = String.trim (String.sub data start (nl - start)) in
          if line <> "" then begin
            let resp = handle t line in
            try write_all fd (resp ^ "\n")
            with Unix.Unix_error _ -> drop fd
          end;
          if not t.stop then go (nl + 1)
          else begin
            Buffer.clear buf;
            Buffer.add_substring buf data (nl + 1)
              (String.length data - nl - 1)
          end
    in
    go 0
  in
  let rec loop () =
    if not t.stop then begin
      let fds = srv :: Hashtbl.fold (fun fd _ acc -> fd :: acc) clients [] in
      let timeout =
        let candidates =
          (if idle_save > 0. then [ idle_save ] else [])
          @ (match metrics_out with
            | Some _ -> [ metrics_interval ]
            | None -> [])
          (* quiet daemons must still surface buffered access lines *)
          @ (match t.access with Some _ -> [ 1.0 ] | None -> [])
        in
        match candidates with
        | [] -> -1.
        | l -> List.fold_left Float.min Float.infinity l
      in
      let ready, _, _ =
        try Unix.select fds [] [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      metrics_tick ();
      if ready = [] then begin
        autosave t;
        sync t
      end
      else
        List.iter
          (fun fd ->
            if fd == srv then begin
              match Unix.accept srv with
              | client, _ -> Hashtbl.replace clients client (Buffer.create 256)
              | exception Unix.Unix_error _ -> ()
            end
            else
              match Hashtbl.find_opt clients fd with
              | None -> ()
              | Some buf -> (
                  let chunk = Bytes.create 4096 in
                  match Unix.read fd chunk 0 4096 with
                  | 0 -> drop fd
                  | n ->
                      Buffer.add_subbytes buf chunk 0 n;
                      drain fd buf
                  | exception Unix.Unix_error _ -> drop fd))
          ready;
      loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      autosave t;
      rewrite_metrics ();
      sync t;
      Hashtbl.iter (fun fd _ -> try Unix.close fd with _ -> ()) clients;
      (try Unix.close srv with Unix.Unix_error _ -> ());
      try Unix.unlink socket_path with Unix.Unix_error _ -> ())
    loop

(* ------------------------------------------------------------------ *)
(* Client side: one round-trip over the socket, used by [dl4 client]
   and the CI smoke test so the protocol can be driven without relying
   on netcat being present. *)

let request ?timeout_ms ~socket_path line =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match timeout_ms with
  | Some ms when ms > 0 ->
      let s = float_of_int ms /. 1000. in
      (* a wedged daemon surfaces as EAGAIN/EWOULDBLOCK from [read],
         which the CLI maps to a clear timeout message *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
  | _ -> ());
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket_path);
      write_all fd (line ^ "\n");
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 4096 in
      let rec read_line () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> Buffer.contents buf
        | n -> (
            match Bytes.index_opt (Bytes.sub chunk 0 n) '\n' with
            | Some nl ->
                Buffer.add_subbytes buf chunk 0 nl;
                Buffer.contents buf
            | None ->
                Buffer.add_subbytes buf chunk 0 n;
                read_line ())
      in
      read_line ())
