(* Flight recorder (PR 5).  See flight.mli for the design contract.

   One ring for the process, appended to without a lock: dl4 reasons on
   a single domain and the serve loop handles one request at a time. *)

let schema = "dl4-flight/1"
let on = ref false
let capacity = 1024

let now_ns () = Unix.gettimeofday () *. 1e9
let t0_ns = now_ns ()

(* The ring holds its events as parallel arrays written in place, so
   recording an event allocates no record and keeps no young block alive
   in the major-heap ring.  Slot [i] of every array is one event. *)
type ring = {
  mutable r_next : int; (* next write slot *)
  mutable r_total : int; (* events ever recorded into this ring *)
  r_ns : float array;
  r_kind : string array;
  r_node : int array;
  r_other : int array;
  r_note : string array;
  r_trace : string array; (* the trace ID current at the event *)
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
          r_ns = Array.make capacity 0.0;
          r_kind = Array.make capacity "";
          r_node = Array.make capacity (-1);
          r_other = Array.make capacity (-1);
          r_note = Array.make capacity "";
          r_trace = Array.make capacity "" }
      in
      ring := Some r;
      r

let record kind node other note =
  let r = current () in
  let i = r.r_next in
  (* stamped here, not at call sites: every recording site inherits
     request correlation without plumbing *)
  r.r_ns.(i) <- now_ns () -. t0_ns;
  r.r_kind.(i) <- kind;
  r.r_node.(i) <- node;
  r.r_other.(i) <- other;
  r.r_note.(i) <- note;
  r.r_trace.(i) <- Obs.trace_id ();
  r.r_next <- (i + 1) mod capacity;
  r.r_total <- r.r_total + 1

let arm ?path () =
  (match path with Some _ -> dump_path := path | None -> ());
  on := true

let disarm () = on := false

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
      let i = (start + k) mod capacity in
      Obj
        ([ ("ns", Num (Float.round r.r_ns.(i)));
           ("kind", Str r.r_kind.(i));
           ("node", int r.r_node.(i));
           ("other", int r.r_other.(i));
           ("note", Str r.r_note.(i)) ]
        @ if r.r_trace.(i) = "" then [] else [ ("trace", Str r.r_trace.(i)) ])
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

let write path = Sink.replace path (dump () ^ "\n")

let trip reason =
  record "trip" (-1) (-1) reason;
  (* the trip's own exception is the news: a dump that cannot be
     written is left to the caller's final write to report *)
  match !dump_path with
  | Some p -> ( try write p with Sys_error _ -> ())
  | None -> ()
