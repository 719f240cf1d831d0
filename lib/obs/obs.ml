(* Obs: the process-wide observability spine (PR 3).

   One module, three concerns:

   - a global metrics registry (monotone counters, gauges, log2-bucketed
     latency histograms) that every layer — tableau, transform, oracle,
     engine, core — feeds through guarded increments;
   - hierarchical wall-clock spans on one stack of open spans;
   - export sinks: a human footer for `--stats`, a flat JSON registry
     dump for `--metrics-json` (printed by Json_lite, like every JSON
     document dl4 writes), and Chrome `trace_event` JSON for `--trace`
     / about:tracing.

   Everything is gated on the single [on] flag.  When no sink is armed
   every instrumentation site is a load + conditional branch — no
   closure allocation, no atomic traffic, no record appends — which is
   what bench S7 (BENCH_obs.json) measures.

   Dependencies: stdlib + unix and Json_lite only. *)

let on = ref false
let enabled () = !on
let set_enabled b = on := b

(* Wall clock in nanoseconds, relative to module init so span timestamps
   stay small and trace viewers get a zero-based timeline. *)
let now_ns () = Unix.gettimeofday () *. 1e9
let t0_ns = now_ns ()

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* ------------------------------------------------------------------ *)
(* Trace IDs (PR 8).

   One opaque hex ID per unit of work — a CLI invocation or a serve
   request.  The current ID is process-global: the CLI and the serve
   loop each process exactly one request at a time.  Like the slow log,
   trace IDs are independent of [on]: cost accounting upstream is
   unconditional. *)

let trace_state = Atomic.make ""
let trace_seq = Atomic.make 0
let trace_pid = lazy (Unix.getpid ())
let hex_digits = "0123456789abcdef"

(* minting runs once per serve request inside its measured window, so it
   is hand-rolled hex over sprintf (which alone costs ~1us) *)
let new_trace_id () =
  let n = Atomic.fetch_and_add trace_seq 1 in
  let t = Unix.gettimeofday () in
  let pid = Lazy.force trace_pid in
  (* two independent hash mixes over (pid, wall clock, sequence) give
     16 hex chars that are unique per process lifetime and unlikely to
     collide across processes; no cryptographic claim is made. *)
  let h1 = Hashtbl.hash (pid, t, n, 0x9e3779b9) in
  let h2 = Hashtbl.hash (n, t, pid, 0x85ebca6b) in
  let b = Bytes.create 16 in
  let put off v k =
    for i = 0 to k - 1 do
      Bytes.unsafe_set b (off + i)
        (String.unsafe_get hex_digits ((v lsr (4 * (k - 1 - i))) land 0xf))
    done
  in
  put 0 h1 7;
  put 7 h2 7;
  put 14 n 2;
  Bytes.unsafe_to_string b

let set_trace_id id = Atomic.set trace_state id
let clear_trace_id () = Atomic.set trace_state ""
let trace_id () = Atomic.get trace_state

let with_trace_id id f =
  let prev = Atomic.get trace_state in
  Atomic.set trace_state id;
  Fun.protect ~finally:(fun () -> Atomic.set trace_state prev) f

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

type counter = { c_name : string; c_value : int Atomic.t }
type gauge = { g_name : string; g_value : float Atomic.t }

type histogram = {
  h_name : string;
  h_count : int Atomic.t;
  h_sum_ns : float Atomic.t;
  h_buckets : int Atomic.t array; (* bucket i counts durations in [2^i, 2^i+1) ns *)
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let register name mk get =
  with_lock registry_mutex (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
          match get m with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf "Obs: %S already registered with another type"
                   name))
      | None ->
          let v, m = mk () in
          Hashtbl.replace registry name m;
          v)

let counter name =
  register name
    (fun () ->
      let c = { c_name = name; c_value = Atomic.make 0 } in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let gauge name =
  register name
    (fun () ->
      let g = { g_name = name; g_value = Atomic.make 0.0 } in
      (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)

let histogram_buckets = 64

let histogram name =
  register name
    (fun () ->
      let h =
        {
          h_name = name;
          h_count = Atomic.make 0;
          h_sum_ns = Atomic.make 0.0;
          h_buckets = Array.init histogram_buckets (fun _ -> Atomic.make 0);
        }
      in
      (h, Histogram h))
    (function Histogram h -> Some h | _ -> None)

let rec atomic_add_float a x =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. x)) then atomic_add_float a x

(* Hot-path guards: a load and a branch when disabled. *)
let incr c = if !on then Atomic.incr c.c_value
let add c n = if !on then ignore (Atomic.fetch_and_add c.c_value n)
let count c = Atomic.get c.c_value
let set_gauge g v = if !on then Atomic.set g.g_value v
let gauge_value g = Atomic.get g.g_value

let bucket_of_ns ns =
  let n = int_of_float ns in
  if n <= 1 then 0
  else begin
    let i = ref 0 and n = ref n in
    while !n > 1 do
      n := !n lsr 1;
      i := !i + 1
    done;
    min !i (histogram_buckets - 1)
  end

let observe_ns h ns =
  if !on then begin
    Atomic.incr h.h_count;
    atomic_add_float h.h_sum_ns ns;
    Atomic.incr h.h_buckets.(bucket_of_ns ns)
  end

let histogram_count h = Atomic.get h.h_count
let histogram_sum_ns h = Atomic.get h.h_sum_ns

let histogram_bucket_counts h =
  Array.to_list h.h_buckets
  |> List.mapi (fun i c -> (i, Atomic.get c))
  |> List.filter (fun (_, c) -> c > 0)

(* ------------------------------------------------------------------ *)
(* Quantile estimation over log2 buckets.

   Bucket 0 holds durations in [0, 2) ns; bucket i >= 1 holds [2^i,
   2^(i+1)).  Within a bucket only the count survives, so a quantile is
   estimated by linear interpolation across the bucket's range: with
   C observations below the bucket and c inside it, the rank r = q*N
   falls at lo + (r - C)/c * (hi - lo).

   Error bounds: at a cumulative bucket boundary (r = C for some
   bucket) the estimate is the exact boundary value 2^i.  Inside a
   bucket the estimate and the true quantile both lie in [lo, hi) with
   hi = 2*lo, so the estimate is within a factor of 2 of the truth
   (absolute error < the bucket width = lo). *)

let quantile_of_buckets buckets q =
  let buckets = List.sort (fun (i, _) (j, _) -> compare i j) buckets in
  let total = List.fold_left (fun a (_, c) -> a + c) 0 buckets in
  if total = 0 then Float.nan
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = q *. float_of_int total in
    let lo i = if i = 0 then 0.0 else ldexp 1.0 i in
    let hi i = ldexp 1.0 (i + 1) in
    let rec walk below = function
      | [] -> (* rank = total and rounding: top of the last bucket *)
          Float.nan
      | (i, c) :: rest ->
          let upto = float_of_int (below + c) in
          if rank <= upto || rest = [] then
            let f = (rank -. float_of_int below) /. float_of_int c in
            let f = Float.max 0.0 (Float.min 1.0 f) in
            lo i +. (f *. (hi i -. lo i))
          else walk (below + c) rest
    in
    walk 0 buckets
  end

let quantile_ns h q = quantile_of_buckets (histogram_bucket_counts h) q

(* ------------------------------------------------------------------ *)
(* Spans *)

type span = {
  sp_id : int;
  sp_parent : int;
  sp_name : string;
  sp_cat : string;
  sp_start_ns : float;
  mutable sp_attrs : (string * string) list;
}

type span_record = {
  r_id : int;
  r_parent : int;
  r_name : string;
  r_cat : string;
  r_start_ns : float;
  r_dur_ns : float;
  r_attrs : (string * string) list;
}

let none =
  {
    sp_id = 0;
    sp_parent = 0;
    sp_name = "";
    sp_cat = "";
    sp_start_ns = 0.0;
    sp_attrs = [];
  }

let live sp = sp.sp_id <> 0
let next_span_id = Atomic.make 1
let records_mutex = Mutex.create ()
let records : span_record list ref = ref [] (* newest first *)

(* The open spans, innermost first: [enter] nests under the head. *)
let stack : span list ref = ref []

let enter ?(cat = "dl4") name =
  if not !on then none
  else begin
    let parent_id = match !stack with s :: _ -> s.sp_id | [] -> 0 in
    let sp =
      {
        sp_id = Atomic.fetch_and_add next_span_id 1;
        sp_parent = parent_id;
        sp_name = name;
        sp_cat = cat;
        sp_start_ns = now_ns () -. t0_ns;
        sp_attrs = [];
      }
    in
    stack := sp :: !stack;
    sp
  end

let set_attr sp k v = if sp.sp_id <> 0 then sp.sp_attrs <- (k, v) :: sp.sp_attrs

(* Close [sp]: pop it from the stack (tolerating mismatched exit
   orders), append an immutable record, return the duration in ns. *)
let finish sp =
  let dur = now_ns () -. t0_ns -. sp.sp_start_ns in
  (match !stack with
  | s :: rest when s.sp_id = sp.sp_id -> stack := rest
  | l ->
      if List.exists (fun s -> s.sp_id = sp.sp_id) l then
        stack := List.filter (fun s -> s.sp_id <> sp.sp_id) l);
  let r =
    {
      r_id = sp.sp_id;
      r_parent = sp.sp_parent;
      r_name = sp.sp_name;
      r_cat = sp.sp_cat;
      r_start_ns = sp.sp_start_ns;
      r_dur_ns = dur;
      r_attrs = List.rev sp.sp_attrs;
    }
  in
  with_lock records_mutex (fun () -> records := r :: !records);
  dur

let exit_span sp = if sp.sp_id <> 0 then ignore (finish sp)

let exit_timed sp h =
  if sp.sp_id <> 0 then begin
    let dur = finish sp in
    (* record into the histogram even though [finish] already ran under
       the guard: sinks could only have been disarmed mid-span. *)
    Atomic.incr h.h_count;
    atomic_add_float h.h_sum_ns dur;
    Atomic.incr h.h_buckets.(bucket_of_ns dur)
  end

let with_span ?cat name f =
  if not !on then f ()
  else begin
    let sp = enter ?cat name in
    Fun.protect ~finally:(fun () -> exit_span sp) f
  end

let spans () = with_lock records_mutex (fun () -> List.rev !records)
let span_count () = with_lock records_mutex (fun () -> List.length !records)

(* ------------------------------------------------------------------ *)
(* Reset (tests, benches) *)

let reset () =
  with_lock records_mutex (fun () -> records := []);
  with_lock registry_mutex (fun () ->
      Hashtbl.iter
        (fun _ -> function
          | Counter c -> Atomic.set c.c_value 0
          | Gauge g -> Atomic.set g.g_value 0.0
          | Histogram h ->
              Atomic.set h.h_count 0;
              Atomic.set h.h_sum_ns 0.0;
              Array.iter (fun b -> Atomic.set b 0) h.h_buckets)
        registry)

(* ------------------------------------------------------------------ *)
(* Introspection for tests / benches *)

let metrics () =
  with_lock registry_mutex (fun () ->
      Hashtbl.fold (fun _ m acc -> m :: acc) registry [])
  |> List.sort (fun a b ->
         let name = function
           | Counter c -> c.c_name
           | Gauge g -> g.g_name
           | Histogram h -> h.h_name
         in
         compare (name a) (name b))

let counters () =
  List.filter_map
    (function Counter c -> Some (c.c_name, Atomic.get c.c_value) | _ -> None)
    (metrics ())

let histograms () =
  List.filter_map
    (function
      | Histogram h -> Some (h.h_name, Atomic.get h.h_count, Atomic.get h.h_sum_ns)
      | _ -> None)
    (metrics ())

let gauges () =
  List.filter_map
    (function Gauge g -> Some (g.g_name, Atomic.get g.g_value) | _ -> None)
    (metrics ())

(* ------------------------------------------------------------------ *)
(* Sinks *)

(* Flat registry dump: one key per scalar, histograms flattened to
   .count / .sum_ns / .buckets. *)
let metrics_json () =
  Json_lite.(
    to_string
      (Obj
         (List.concat_map
            (function
              | Counter c -> [ (c.c_name, int (Atomic.get c.c_value)) ]
              | Gauge g -> [ (g.g_name, Num (Atomic.get g.g_value)) ]
              | Histogram h ->
                  [ (h.h_name ^ ".count", int (Atomic.get h.h_count));
                    (h.h_name ^ ".sum_ns", Num (Atomic.get h.h_sum_ns));
                    ( h.h_name ^ ".buckets",
                      Arr
                        (List.map
                           (fun (i, c) -> Arr [ int i; int c ])
                           (histogram_bucket_counts h)) ) ])
            (metrics ()))))

let write_metrics_json path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (metrics_json ());
      output_char oc '\n')

(* Chrome trace_event JSON: one complete ("ph":"X") event per span
   record; ts/dur in microseconds; every span runs on tid 0.  Span ids
   ride along in args so checkers can rebuild the tree without relying
   on interval containment alone.  Rendered by hand: Json_lite's number
   rule would cut ts/dur to six significant digits. *)
let trace_json () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun r ->
      if not !first then Buffer.add_string b ",";
      first := false;
      Buffer.add_string b
        (Printf.sprintf
           "\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":0,\"args\":{"
           (Json_lite.escape r.r_name) (Json_lite.escape r.r_cat)
           (r.r_start_ns /. 1e3) (r.r_dur_ns /. 1e3));
      let args =
        ("id", string_of_int r.r_id)
        :: ("parent", string_of_int r.r_parent)
        :: r.r_attrs
      in
      Buffer.add_string b
        (String.concat ","
           (List.map
              (fun (k, v) ->
                Printf.sprintf "\"%s\":\"%s\"" (Json_lite.escape k)
                  (Json_lite.escape v))
              args));
      Buffer.add_string b "}}")
    (spans ());
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let write_trace path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (trace_json ()))

(* Human footer for the uniform `--stats` output: non-zero counters,
   histogram summaries, span count. *)
let pp_footer ppf () =
  Format.fprintf ppf "-- stats ---------------------------------------------@,";
  List.iter
    (function
      | Counter c ->
          let v = Atomic.get c.c_value in
          if v <> 0 then Format.fprintf ppf "  %-38s %10d@," c.c_name v
      | Gauge g ->
          let v = Atomic.get g.g_value in
          if v <> 0.0 then Format.fprintf ppf "  %-38s %10.2f@," g.g_name v
      | Histogram h ->
          let n = Atomic.get h.h_count in
          if n > 0 then
            let sum = Atomic.get h.h_sum_ns in
            Format.fprintf ppf "  %-38s %10d  total %.2f ms  mean %.1f us@,"
              h.h_name n (sum /. 1e6) (sum /. float_of_int n /. 1e3))
    (metrics ());
  let n = span_count () in
  if n > 0 then Format.fprintf ppf "  %-38s %10d@," "spans.recorded" n

let print_footer () = Format.printf "@[<v>%a@]@." pp_footer ()

(* ------------------------------------------------------------------ *)
(* Slow-query log: an append-only JSONL sink, independent of [on] (cost
   accounting upstream is unconditional, so slow verdicts are caught
   even when no metrics sink is armed).  The channel opens lazily on
   the first slow record and is flushed per line, so a post-mortem
   after a crash still has every completed record. *)

let slow_mutex = Mutex.create ()
let slow_state : (string * float) option ref = ref None (* path, threshold ms *)
let slow_chan : out_channel option ref = ref None

let arm_slow_log ?(threshold_ms = 100.0) path =
  with_lock slow_mutex (fun () -> slow_state := Some (path, threshold_ms))

let disarm_slow_log () =
  with_lock slow_mutex (fun () ->
      slow_state := None;
      match !slow_chan with
      | Some oc ->
          slow_chan := None;
          close_out_noerr oc
      | None -> ())

let slow_log_armed () = !slow_state <> None

let slow_log_path () =
  match !slow_state with Some (p, _) -> Some p | None -> None

let slow_threshold_ms () =
  match !slow_state with Some (_, t) -> t | None -> Float.infinity

let slow_log_write line =
  with_lock slow_mutex (fun () ->
      match !slow_state with
      | None -> ()
      | Some (path, _) -> (
          let oc =
            match !slow_chan with
            | Some oc -> Some oc
            | None -> (
                match open_out_gen [ Open_append; Open_creat ] 0o644 path with
                | oc ->
                    slow_chan := Some oc;
                    Some oc
                | exception Sys_error _ -> None)
          in
          match oc with
          | None -> ()
          | Some oc ->
              output_string oc line;
              output_char oc '\n';
              flush oc))

(* ------------------------------------------------------------------ *)
(* DL4_TRACE: arm tracing from the environment so any binary (the CLI,
   the test suite under CI) emits a trace without flag plumbing.
   Value "1" means the default path; anything else is the path. *)

let trace_env_path =
  match Sys.getenv_opt "DL4_TRACE" with
  | None | Some "" | Some "0" -> None
  | Some "1" -> Some "dl4.trace.json"
  | Some p -> Some p

let () =
  match trace_env_path with
  | None -> ()
  | Some path ->
      set_enabled true;
      at_exit (fun () -> try write_trace path with Sys_error _ -> ())
