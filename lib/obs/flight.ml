(* Flight recorder (PR 5).  See flight.mli for the design contract.

   One ring for the process, appended to without a lock: dl4 reasons on
   a single domain and the serve loop handles one request at a time. *)

let schema = "dl4-flight/1"
let on = ref false
let capacity = 1024

let now_ns () = Unix.gettimeofday () *. 1e9
let t0_ns = now_ns ()

type event = {
  e_ns : float;
  e_kind : string;
  e_node : int;
  e_other : int;
  e_note : string;
  e_trace : string; (* the trace ID current when the event was recorded *)
}

let dummy_event =
  { e_ns = 0.0; e_kind = ""; e_node = -1; e_other = -1; e_note = "";
    e_trace = "" }

type ring = {
  mutable r_next : int; (* next write slot *)
  mutable r_total : int; (* events ever recorded into this ring *)
  r_events : event array;
}

(* Created on first use; [reset] drops it so the next event starts a
   fresh ring. *)
let ring : ring option ref = ref None
let dump_path : string option ref = ref None

let current () =
  match !ring with
  | Some r -> r
  | None ->
      let r =
        { r_next = 0; r_total = 0;
          r_events = Array.make capacity dummy_event }
      in
      ring := Some r;
      r

let record kind node other note =
  let r = current () in
  (* stamped here, not at call sites: every recording site inherits
     request correlation without plumbing *)
  let e = { e_ns = now_ns () -. t0_ns; e_kind = kind; e_node = node;
            e_other = other; e_note = note; e_trace = Obs.trace_id () } in
  r.r_events.(r.r_next) <- e;
  r.r_next <- (r.r_next + 1) mod capacity;
  r.r_total <- r.r_total + 1

let arm ?path () =
  (match path with Some _ -> dump_path := path | None -> ());
  on := true

let disarm () = on := false
let armed_path () = !dump_path

let events_recorded () =
  match !ring with Some r -> r.r_total | None -> 0

let reset () = ring := None

(* The dl4-flight/1 shape keeps a list of per-domain rings; there is
   exactly one, on tid 0, and nothing overflows. *)
let dump () =
  let r = current () in
  let total = r.r_total in
  let kept = min total capacity in
  (* oldest-first: a wrapped ring starts at r_next *)
  let start = if total > capacity then r.r_next else 0 in
  Json_lite.(
    let event k =
      let e = r.r_events.((start + k) mod capacity) in
      Obj
        ([ ("ns", Num (Float.round e.e_ns));
           ("kind", Str e.e_kind);
           ("node", int e.e_node);
           ("other", int e.e_other);
           ("note", Str e.e_note) ]
        @ if e.e_trace = "" then [] else [ ("trace", Str e.e_trace) ])
    in
    to_string
      (Obj
         [ ("schema", Str schema);
           ("capacity", int capacity);
           ("overflow_dropped", int 0);
           ( "domains",
             Arr
               [ Obj
                   [ ("tid", int 0);
                     ("total", int total);
                     ("dropped", int (total - kept));
                     ("events", Arr (List.init kept event)) ] ] ) ]))

let write_mutex = Mutex.create ()

let write path =
  Mutex.lock write_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock write_mutex)
    (fun () ->
      match open_out path with
      | oc ->
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () ->
              output_string oc (dump ());
              output_char oc '\n')
      | exception Sys_error _ -> ())

let trip reason =
  record "trip" (-1) (-1) reason;
  match !dump_path with Some p -> write p | None -> ()
