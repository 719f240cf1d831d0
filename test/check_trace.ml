(* Standalone validator for Chrome trace_event files produced by Dl_obs
   (--trace FILE / DL4_TRACE).  Used by CI to vet the trace artifact the
   suite writes when run with DL4_TRACE=1.

   Checks:
   - the file is a JSON object with a "traceEvents" array;
   - every event is a complete-duration event: ph "X", string name/cat,
     numeric ts/dur/pid/tid, dur >= 0;
   - span identities: args.id positive and unique, args.parent resolves
     to an existing id (or 0 for roots), and each child's [ts, ts+dur]
     interval sits inside its parent's (small epsilon for clock grain);
   - per-tid well-formedness: on any one tid, intervals are properly
     nested or disjoint — never partially overlapping.

   Exit 0 on success (prints a one-line summary), 1 with diagnostics
   otherwise.  JSON is read with Dl_obs's [Json_lite], like the other
   validators. *)

(* ------------------------------------------------------------------ *)
(* Validation *)

type event = {
  name : string;
  tid : int;
  ts : float; (* microseconds *)
  dur : float;
  id : int; (* 0 when the event carries no span identity *)
  parent : int;
}

let errors = ref 0

let err fmt =
  Printf.ksprintf
    (fun msg ->
      incr errors;
      if !errors <= 25 then Printf.eprintf "error: %s\n" msg)
    fmt

let field obj k = Json_lite.member k obj

let num_field ctx obj k =
  match field obj k with
  | Some (Json_lite.Num f) -> Some f
  | Some _ ->
      err "%s: field %S is not a number" ctx k;
      None
  | None ->
      err "%s: missing field %S" ctx k;
      None

let str_field ctx obj k =
  match field obj k with
  | Some (Json_lite.Str v) -> Some v
  | Some _ ->
      err "%s: field %S is not a string" ctx k;
      None
  | None ->
      err "%s: missing field %S" ctx k;
      None

let event_of_json i j =
  let ctx = Printf.sprintf "event %d" i in
  let name = Option.value ~default:"?" (str_field ctx j "name") in
  ignore (str_field ctx j "cat");
  (match str_field ctx j "ph" with
  | Some "X" | None -> ()
  | Some ph -> err "%s (%s): ph is %S, want \"X\"" ctx name ph);
  ignore (num_field ctx j "pid");
  let tid =
    match num_field ctx j "tid" with Some f -> int_of_float f | None -> 0
  in
  let ts = Option.value ~default:0.0 (num_field ctx j "ts") in
  let dur = Option.value ~default:0.0 (num_field ctx j "dur") in
  if dur < 0.0 then err "%s (%s): negative dur %f" ctx name dur;
  let arg_int k =
    match field j "args" with
    | Some args -> (
        match field args k with
        | Some (Json_lite.Num f) -> int_of_float f
        | Some (Json_lite.Str s) -> ( try int_of_string s with _ -> 0)
        | _ -> 0)
    | None -> 0
  in
  { name; tid; ts; dur; id = arg_int "id"; parent = arg_int "parent" }

let eps_us = 10.0

let check_parents events =
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if e.id <> 0 then begin
        if Hashtbl.mem by_id e.id then
          err "span id %d (%s) is not unique" e.id e.name;
        Hashtbl.replace by_id e.id e
      end)
    events;
  List.iter
    (fun e ->
      if e.parent <> 0 then
        match Hashtbl.find_opt by_id e.parent with
        | None -> err "span %s: parent id %d not in trace" e.name e.parent
        | Some p ->
            if e.ts < p.ts -. eps_us then
              err "span %s starts %.1fus before its parent %s" e.name
                (p.ts -. e.ts) p.name;
            if e.ts +. e.dur > p.ts +. p.dur +. eps_us then
              err "span %s ends %.1fus after its parent %s" e.name
                (e.ts +. e.dur -. (p.ts +. p.dur))
                p.name)
    events

(* On one tid, complete events must be properly nested or disjoint: sort
   by (ts, -dur) and keep a stack of enclosing intervals. *)
let check_nesting events =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun e ->
      Hashtbl.replace by_tid e.tid
        (e :: Option.value ~default:[] (Hashtbl.find_opt by_tid e.tid)))
    events;
  Hashtbl.iter
    (fun tid es ->
      let sorted =
        List.sort
          (fun a b ->
            match compare a.ts b.ts with
            | 0 -> compare b.dur a.dur
            | c -> c)
          es
      in
      let stack = ref [] in
      List.iter
        (fun e ->
          let rec pop () =
            match !stack with
            | top :: rest when e.ts >= top.ts +. top.dur -. eps_us ->
                stack := rest;
                pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | top :: _ when e.ts +. e.dur > top.ts +. top.dur +. eps_us ->
              err
                "tid %d: span %s [%.1f, %.1f] partially overlaps %s [%.1f, \
                 %.1f]"
                tid e.name e.ts (e.ts +. e.dur) top.name top.ts
                (top.ts +. top.dur)
          | _ -> ());
          stack := e :: !stack)
        sorted)
    by_tid

let () =
  let path =
    match Sys.argv with
    | [| _; p |] -> p
    | _ ->
        prerr_endline "usage: check_trace FILE.trace.json";
        exit 2
  in
  let contents =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let root =
    match Json_lite.parse contents with
    | Ok j -> j
    | Error msg ->
        Printf.eprintf "error: %s: invalid JSON: %s\n" path msg;
        exit 1
  in
  let events =
    match field root "traceEvents" with
    | Some (Json_lite.Arr evs) -> List.mapi event_of_json evs
    | Some _ ->
        err "%s: \"traceEvents\" is not an array" path;
        []
    | None ->
        err "%s: no \"traceEvents\" field" path;
        []
  in
  check_parents events;
  check_nesting events;
  let tids =
    List.sort_uniq compare (List.map (fun e -> e.tid) events)
  in
  if !errors > 0 then begin
    Printf.eprintf "%s: %d error(s) in %d events\n" path !errors
      (List.length events);
    exit 1
  end;
  Printf.printf "%s: ok (%d events, %d tid(s))\n" path (List.length events)
    (List.length tids)
