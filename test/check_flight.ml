(* Standalone validator for flight-recorder dumps ("dl4-flight/1", from
   --flight FILE, written at the end of a run and at a resource-limit
   trip).  Used by CI to vet the dump produced by provoking a
   max-branches trip.

   Checks:
   - the file is a JSON object with schema "dl4-flight/1", a positive
     capacity, a non-negative overflow_dropped and a "domains" array;
   - every domain has a non-negative tid and total, dropped =
     max(0, total - capacity), and exactly min(total, capacity) events;
   - events are oldest-first: "ns" is non-negative and non-decreasing
     within each domain; every event carries a non-empty "kind";
   - at least one event exists overall (an empty dump means the
     recorder was never armed — a misconfigured provocation).

   Exit 0 on success with a one-line summary, 1 with diagnostics. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let errors = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr errors;
      Printf.eprintf "check_flight: %s\n" s)
    fmt

let num name j =
  match Json_lite.member name j with
  | Some v -> (
      match Json_lite.to_num v with
      | Some x -> x
      | None ->
          fail "%S is not a number" name;
          Float.nan)
  | None ->
      fail "missing %S" name;
      Float.nan

let str name j =
  match Json_lite.member name j with
  | Some v -> (
      match Json_lite.to_str v with
      | Some s -> s
      | None ->
          fail "%S is not a string" name;
          "")
  | None ->
      fail "missing %S" name;
      ""

let () =
  let path =
    match Sys.argv with
    | [| _; p |] -> p
    | _ ->
        prerr_endline "usage: check_flight FILE";
        exit 2
  in
  let j =
    match Json_lite.parse (read_file path) with
    | Ok j -> j
    | Error e ->
        Printf.eprintf "check_flight: %s: %s\n" path e;
        exit 1
  in
  let schema = str "schema" j in
  if schema <> "dl4-flight/1" then fail "unexpected schema %S" schema;
  let capacity = int_of_float (num "capacity" j) in
  if capacity <= 0 then fail "capacity %d not positive" capacity;
  let overflow = num "overflow_dropped" j in
  if overflow < 0.0 then fail "negative overflow_dropped";
  let domains =
    match Json_lite.member "domains" j with
    | Some (Json_lite.Arr l) -> l
    | _ ->
        fail "missing \"domains\" array";
        []
  in
  let total_events = ref 0 in
  List.iteri
    (fun di d ->
      let tid = int_of_float (num "tid" d) in
      if tid < 0 then fail "domain %d: negative tid" di;
      let total = int_of_float (num "total" d) in
      if total < 0 then fail "domain %d: negative total" di;
      let dropped = int_of_float (num "dropped" d) in
      if dropped <> max 0 (total - capacity) then
        fail "domain %d: dropped %d inconsistent with total %d, capacity %d"
          di dropped total capacity;
      let events =
        match Json_lite.member "events" d with
        | Some (Json_lite.Arr l) -> l
        | _ ->
            fail "domain %d: missing \"events\" array" di;
            []
      in
      if List.length events <> min total capacity then
        fail "domain %d: %d events, expected min(total=%d, capacity=%d)" di
          (List.length events) total capacity;
      total_events := !total_events + List.length events;
      let _ =
        List.fold_left
          (fun (i, prev) e ->
            let ns = num "ns" e in
            if ns < 0.0 then fail "domain %d event %d: negative ns" di i;
            if ns < prev then
              fail "domain %d event %d: ns %g decreases from %g" di i ns prev;
            if str "kind" e = "" then fail "domain %d event %d: empty kind" di i;
            (i + 1, ns))
          (0, neg_infinity) events
      in
      ())
    domains;
  if !total_events = 0 then fail "dump holds no events at all";
  if !errors > 0 then begin
    Printf.eprintf "check_flight: %s: %d error(s)\n" path !errors;
    exit 1
  end;
  Printf.printf "check_flight: %s: OK (%d domains, %d retained events)\n" path
    (List.length domains) !total_events
