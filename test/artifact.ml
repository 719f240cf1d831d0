(* One checker for the artifacts dl4 writes beside its answers: Chrome
   traces, dl4-flight/1 dumps, Prometheus text, dl4-plan/1 plans and
   dl4-audit/1 census reports.

   A file is recognised from its content.  When its whole text parses
   as one JSON value it is one document; otherwise it is JSONL when its
   first non-empty line parses as JSON, and Prometheus exposition
   otherwise.  A JSON value with "traceEvents" is a Chrome trace; any
   other is dispatched on its "schema" tag.

   Each JSON kind declares its required fields once, as a table of
   field and expected shape.  The cross-field invariants a table cannot
   state are code, and run on documents whose fields all have their
   declared shapes.  The Prometheus reader is hand-written and shares
   nothing with Telemetry's renderer, so it checks the writer instead
   of sharing its bugs. *)

open Printf
module J = Json_lite

type defect = { file : string; line : int; path : string; msg : string }

let to_string d = sprintf "%s:%d: %s: %s" d.file d.line d.path d.msg

(* ------------------------------------------------------------------ *)
(* Shapes *)

type shape =
  | Any
  | Str of bool  (** a string; non-empty when [true] *)
  | Enum of string list
  | Num of { int : bool; min : float; max : float }
  | Bool
  | Null_or of shape
  | Arr of bool * shape  (** non-empty when [true]; the element shape *)
  | Obj of bool * (string * shape) list  (** no other keys when [true] *)
  | Opt of shape  (** a field that may be absent *)

let str = Str false
let name = Str true
let num = Num { int = false; min = neg_infinity; max = infinity }
let at_least ?(int = false) min = Num { int; min; max = infinity }
let nat = at_least ~int:true 0.0
let nonneg = at_least 0.0
let arr elt = Arr (false, elt)
let obj fields = Obj (false, fields)
let values = [ "t"; "f"; "B"; "N" ]

let rec describe = function
  | Any -> "a value"
  | Str nonempty -> if nonempty then "a non-empty string" else "a string"
  | Enum l -> "one of " ^ String.concat ", " l
  | Num { int; min; max } ->
      let what = if int then "an integer" else "a number" in
      if max < infinity then sprintf "%s in [%g, %g]" what min max
      else if min > neg_infinity then sprintf "%s >= %g" what min
      else what
  | Bool -> "a boolean"
  | Null_or s -> "null or " ^ describe s
  | Arr (nonempty, _) -> if nonempty then "a non-empty array" else "an array"
  | Obj _ -> "an object"
  | Opt s -> describe s

let rec fits shape (v : J.t) =
  match (shape, v) with
  | Any, _ | Bool, Bool _ | Null_or _, Null | Obj _, Obj _ -> true
  | Str nonempty, Str s -> not (nonempty && s = "")
  | Enum l, Str s -> List.mem s l
  | Num { int; min; max }, Num f ->
      ((not int) || Float.is_integer f) && f >= min && f <= max
  | Arr (nonempty, _), Arr l -> not (nonempty && l = [])
  | (Null_or s | Opt s), v -> fits s v
  | _ -> false

let excerpt v =
  let s = J.to_string v in
  if String.length s <= 40 then s else String.sub s 0 37 ^ "..."

let rec conform err path shape (v : J.t) =
  if not (fits shape v) then
    err path (sprintf "want %s, got %s" (describe shape) (excerpt v))
  else
    match (shape, v) with
    | Arr (_, elt), Arr l ->
        List.iteri
          (fun i x -> conform err (sprintf "%s[%d]" path i) elt x)
          l
    | Obj (closed, fields), Obj members ->
        List.iter
          (fun (k, s) ->
            match (List.assoc_opt k members, s) with
            | None, Opt _ -> ()
            | None, _ -> err (path ^ "." ^ k) "missing"
            | Some x, _ -> conform err (path ^ "." ^ k) s x)
          fields;
        if closed then
          List.iter
            (fun (k, _) ->
              if not (List.mem_assoc k fields) then
                err (path ^ "." ^ k) "unexpected key")
            members
    | Opt s, v -> conform err path s v
    | _ -> ()

(* Field readers for the invariants, which run only on documents that
   conform, so every field they read is there with its shape. *)
let get k j = Option.get (J.member k j)
let number k j = Option.get (J.to_num (get k j))
let int k j = int_of_float (number k j)
let text k j = Option.get (J.to_str (get k j))
let list k j = Option.get (J.to_list (get k j))
let strings k j = List.map (fun x -> Option.get (J.to_str x)) (list k j)

(* ------------------------------------------------------------------ *)
(* Chrome trace *)

let trace_shape =
  obj
    [ ( "traceEvents",
        arr
          (obj
             [ ("ph", Enum [ "X" ]); ("name", str); ("cat", str);
               ("ts", num); ("dur", nonneg); ("pid", num); ("tid", num) ]) )
    ]

type span = {
  path : string;
  sname : string;
  tid : int;
  ts : float;
  dur : float;
  id : int;  (** 0 when the event carries no span identity *)
  parent : int;
}

let slack_us = 10.0

let trace_invariants err doc =
  let arg k e =
    match Option.bind (J.member "args" e) (J.member k) with
    | Some (Num f) -> int_of_float f
    | Some (Str s) -> Option.value ~default:0 (int_of_string_opt s)
    | _ -> 0
  in
  let spans =
    List.mapi
      (fun i e ->
        { path = sprintf "$.traceEvents[%d]" i; sname = text "name" e;
          tid = int "tid" e; ts = number "ts" e; dur = number "dur" e;
          id = arg "id" e; parent = arg "parent" e })
      (list "traceEvents" doc)
  in
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if e.id <> 0 then begin
        if Hashtbl.mem by_id e.id then
          err (e.path ^ ".args.id") (sprintf "span id %d is not unique" e.id);
        Hashtbl.replace by_id e.id e
      end)
    spans;
  List.iter
    (fun e ->
      if e.parent <> 0 then
        match Hashtbl.find_opt by_id e.parent with
        | None ->
            err (e.path ^ ".args.parent")
              (sprintf "parent id %d is not in the trace" e.parent)
        | Some p ->
            if e.ts < p.ts -. slack_us
               || e.ts +. e.dur > p.ts +. p.dur +. slack_us
            then
              err e.path
                (sprintf "span %s [%.1f, %.1f] escapes its parent %s \
                          [%.1f, %.1f]"
                   e.sname e.ts (e.ts +. e.dur) p.sname p.ts (p.ts +. p.dur)))
    spans;
  (* on one tid, spans nest or are disjoint: sorted by (ts, -dur), each
     span must end inside the innermost span still open at its start *)
  let by_start a b =
    match compare a.ts b.ts with 0 -> compare b.dur a.dur | c -> c
  in
  List.iter
    (fun tid ->
      List.filter (fun e -> e.tid = tid) spans
      |> List.stable_sort by_start
      |> List.fold_left
           (fun stack e ->
             let rec pop = function
               | top :: rest when e.ts >= top.ts +. top.dur -. slack_us ->
                   pop rest
               | stack -> stack
             in
             let stack = pop stack in
             (match stack with
             | top :: _ when e.ts +. e.dur > top.ts +. top.dur +. slack_us ->
                 err e.path
                   (sprintf "tid %d: span %s partially overlaps %s" tid e.sname
                      top.sname)
             | _ -> ());
             e :: stack)
           []
      |> ignore)
    (List.sort_uniq compare (List.map (fun e -> e.tid) spans))

(* ------------------------------------------------------------------ *)
(* dl4-flight/1 *)

let flight_shape =
  obj
    [ ("capacity", at_least 1.0);
      ("overflow_dropped", nonneg);
      ( "domains",
        arr
          (obj
             [ ("tid", nonneg); ("total", nonneg); ("dropped", num);
               ("events", arr (obj [ ("ns", nonneg); ("kind", name) ])) ]) )
    ]

let flight_invariants err doc =
  let capacity = int "capacity" doc in
  let retained = ref 0 in
  List.iteri
    (fun i d ->
      let path = sprintf "$.domains[%d]" i in
      let total = int "total" d and events = list "events" d in
      if int "dropped" d <> max 0 (total - capacity) then
        err (path ^ ".dropped")
          (sprintf "%d, want max(0, total %d - capacity %d)" (int "dropped" d)
             total capacity);
      if List.length events <> min total capacity then
        err (path ^ ".events")
          (sprintf "holds %d events, want min(total %d, capacity %d)"
             (List.length events) total capacity);
      retained := !retained + List.length events;
      List.fold_left
        (fun (k, prev) e ->
          let ns = number "ns" e in
          if ns < prev then
            err (sprintf "%s.events[%d].ns" path k)
              (sprintf "%g decreases from %g" ns prev);
          (k + 1, ns))
        (0, neg_infinity) events
      |> ignore)
    (list "domains" doc);
  if !retained = 0 then err "$.domains" "the dump holds no events"

(* ------------------------------------------------------------------ *)
(* dl4-plan/1 *)

let plan_shape =
  let joins = [ "nested_loop"; "hash_join" ] in
  obj
    [ ("query", name);
      ("vars", arr str);
      ("individuals", nat);
      ("threshold", nat);
      ("forced", Null_or (Enum joins));
      ("order", Enum [ "cost"; "syntactic" ]);
      ("executed", Bool);
      ( "steps",
        Arr
          ( true,
            obj
              [ ("atom", name);
                ("kind", Enum [ "concept"; "role" ]);
                ("binds", arr str);
                ("filter", Bool);
                ("est_rows", nat);
                ("est_cost_ns", nonneg);
                ("strategy", Null_or (Enum (joins @ [ "filter" ])));
                ("actual_rows", Null_or nat);
                ("probes", Null_or nat) ] ) ) ]

let plan_invariants err doc =
  let executed = get "executed" doc = J.Bool true in
  let bound =
    List.mapi
      (fun i step ->
        let path = sprintf "$.steps[%d]" i in
        let binds = strings "binds" step in
        if get "filter" step <> J.Bool (binds = []) then
          err (path ^ ".filter") "must be true exactly when binds is empty";
        List.iter
          (fun k ->
            if (get k step = J.Null) = executed then
              err (path ^ "." ^ k)
                (if executed then "null in an executed plan"
                 else "set in a plan that was not executed"))
          [ "strategy"; "actual_rows"; "probes" ];
        binds)
      (list "steps" doc)
    |> List.concat |> List.sort compare
  in
  let vars = List.sort compare (strings "vars" doc) in
  if bound <> vars || List.sort_uniq compare bound <> bound then
    err "$.steps"
      (sprintf "binds [%s] do not partition vars [%s]"
         (String.concat ", " bound) (String.concat ", " vars))

(* ------------------------------------------------------------------ *)
(* dl4-audit/1 *)

let audit_shape =
  let top key extra =
    arr (obj ([ (key, name); ("B", at_least ~int:true 1.0) ] @ extra))
  in
  obj
    [ ( "kb",
        obj
          (List.map
             (fun k -> (k, nat))
             [ "individuals"; "concepts"; "role_facts"; "tbox_axioms";
               "abox_axioms" ]) );
      ("counts", Obj (true, List.map (fun v -> (v, nat)) values));
      ("decided", nat);
      ("inconsistency_ratio", Num { int = false; min = 0.0; max = 1.0 });
      ( "per_concept",
        arr
          (obj
             [ ("concept", name); ("B", nat); ("decided", nat);
               ("b_rate", num) ]) );
      ( "top_individuals",
        top "individual"
          [ ( "provenance",
              obj [ ("individuals", arr Any); ("concepts", arr Any) ] ) ] );
      ("top_concepts", top "concept" []);
      ("exactly", Opt (arr (Enum values)));
      ("facts", Opt (arr (obj [ ("fact", name); ("value", str) ]))) ]

let audit_invariants err doc =
  let kb = get "kb" doc and counts = get "counts" doc in
  let t = int "t" counts and f = int "f" counts and b = int "B" counts in
  let sum = t + f + b + int "N" counts
  and swept =
    (int "individuals" kb * int "concepts" kb) + int "role_facts" kb
  in
  if sum <> swept then
    err "$.counts"
      (sprintf "sum to %d, want individuals x concepts + role_facts = %d"
         sum swept);
  let decided = int "decided" doc in
  if decided <> t + f + b then
    err "$.decided" (sprintf "%d, want t + f + B = %d" decided (t + f + b));
  let rate b d = if d = 0 then 0.0 else float_of_int b /. float_of_int d in
  let ratio = number "inconsistency_ratio" doc in
  if Float.abs (ratio -. rate b decided) > 1e-6 then
    err "$.inconsistency_ratio"
      (sprintf "%g, want B / decided = %g" ratio (rate b decided));
  let rows = list "per_concept" doc in
  if List.length rows <> int "concepts" kb then
    err "$.per_concept"
      (sprintf "has %d rows for %d concepts" (List.length rows)
         (int "concepts" kb));
  let seen = Hashtbl.create 16 in
  List.iteri
    (fun i row ->
      let path = sprintf "$.per_concept[%d]" i in
      let c = text "concept" row and b = int "B" row in
      let d = int "decided" row and b_rate = number "b_rate" row in
      if Hashtbl.mem seen c then
        err (path ^ ".concept") (sprintf "duplicate concept %S" c);
      Hashtbl.replace seen c ();
      if d < b then err (path ^ ".decided") (sprintf "%d is below B = %d" d b)
      else if Float.abs (b_rate -. rate b d) > 1e-6 then
        err (path ^ ".b_rate")
          (sprintf "%g, want B / decided = %g" b_rate (rate b d)))
    rows;
  List.iter
    (fun key ->
      List.fold_left
        (fun (i, prev) row ->
          if int "B" row > prev then
            err (sprintf "$.%s[%d].B" key i) "not sorted by descending B";
          (i + 1, int "B" row))
        (0, max_int) (list key doc)
      |> ignore)
    [ "top_individuals"; "top_concepts" ];
  match (J.member "exactly" doc, J.member "facts" doc) with
  | None, None -> ()
  | Some _, None -> err "$.facts" "missing while exactly is present"
  | None, Some _ -> err "$.facts" "present without exactly"
  | Some _, Some _ ->
      let allowed = strings "exactly" doc in
      let short = function "TOP" -> "B" | "BOT" -> "N" | v -> v in
      List.iteri
        (fun i fact ->
          let v = text "value" fact in
          if not (List.mem (short v) allowed) then
            err (sprintf "$.facts[%d].value" i)
              (sprintf "%S is outside exactly" v))
        (list "facts" doc)

(* ------------------------------------------------------------------ *)
(* JSON documents *)

type kind = {
  tag : string;
  shape : shape;
  invariants : (string -> string -> unit) -> J.t -> unit;
}

let trace =
  { tag = "Chrome trace"; shape = trace_shape; invariants = trace_invariants }

let tagged =
  [ { tag = "dl4-flight/1"; shape = flight_shape;
      invariants = flight_invariants };
    { tag = "dl4-plan/1"; shape = plan_shape; invariants = plan_invariants };
    { tag = "dl4-audit/1"; shape = audit_shape;
      invariants = audit_invariants } ]

(* The kind's tag, once the document is checked. *)
let document err doc =
  let kind =
    if J.member "traceEvents" doc <> None then Ok trace
    else
      match J.member "schema" doc with
      | Some (Str tag) -> (
          match List.find_opt (fun k -> k.tag = tag) tagged with
          | Some k -> Ok k
          | None -> Error (sprintf "unknown artifact kind %S" tag))
      | _ -> Error "unknown artifact kind: no traceEvents and no schema tag"
  in
  match kind with
  | Error msg ->
      err "$" msg;
      None
  | Ok k ->
      let clean = ref true in
      conform
        (fun path msg ->
          clean := false;
          err path msg)
        "$" k.shape doc;
      if !clean then k.invariants err doc;
      Some k.tag

(* ------------------------------------------------------------------ *)
(* Prometheus exposition *)

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

let is_metric_name s =
  s <> "" && is_name_start s.[0] && String.for_all is_name_char s

let is_label_name s = is_metric_name s && not (String.contains s ':')

let prom_value = function
  | "+Inf" | "Inf" -> Some infinity
  | "-Inf" -> Some neg_infinity
  | "NaN" -> Some nan
  | s -> float_of_string_opt s

(* The label set opening at [s.[i] = '{']: its pairs and the index after
   the closing brace.  A bad label name or escape is reported and the
   scan goes on; any other grammar error ends it. *)
let labels err s i =
  let n = String.length s in
  let rec pairs acc i =
    if i >= n then Error "unterminated label set"
    else if s.[i] = '}' then Ok (List.rev acc, i + 1)
    else
      let j = ref i in
      while !j < n && s.[!j] <> '=' && s.[!j] <> '}' do incr j done;
      let key = String.sub s i (!j - i) in
      if !j >= n || s.[!j] <> '=' then Error "label without '='"
      else if !j + 1 >= n || s.[!j + 1] <> '"' then
        Error (sprintf "label value of %S is not quoted" key)
      else begin
        if not (is_label_name key) then
          err (sprintf "invalid label name %S" key);
        value acc key (Buffer.create 16) (!j + 2)
      end
  and value acc key b k =
    if k >= n || (s.[k] = '\\' && k + 1 >= n) then
      Error (sprintf "unterminated label value for %S" key)
    else if s.[k] = '\\' then begin
      (match s.[k + 1] with
      | ('\\' | '"') as c -> Buffer.add_char b c
      | 'n' -> Buffer.add_char b '\n'
      | c ->
          err
            (sprintf "illegal escape '\\%c' in label value for %S (only \\\\, \
                 \\\" and \\n)"
               c key));
      value acc key b (k + 2)
    end
    else if s.[k] <> '"' then begin
      Buffer.add_char b s.[k];
      value acc key b (k + 1)
    end
    else
      let acc = (key, Buffer.contents b) :: acc in
      if k + 1 < n && s.[k + 1] = ',' then pairs acc (k + 2)
      else if k + 1 < n && s.[k + 1] = '}' then Ok (List.rev acc, k + 2)
      else Error (sprintf "expected ',' or '}' after label %S" key)
  in
  pairs [] (i + 1)

type sample = { line : int; value : float }

(* The samples read, after every line and histogram is checked. *)
let prometheus err lines =
  let types = Hashtbl.create 16 in
  let series = Hashtbl.create 64 in
  let order = ref [] in
  let type_of name = Hashtbl.find_opt types name in
  let base_of name =
    if Hashtbl.mem types name then Some name
    else
      List.find_map
        (fun suffix ->
          let n = String.length name - String.length suffix in
          let base = if n > 0 then String.sub name 0 n else "" in
          match type_of base with
          | Some ("histogram" | "summary") when String.ends_with ~suffix name
            ->
              Some base
          | _ -> None)
        [ "_bucket"; "_sum"; "_count" ]
  in
  let sample ln line =
    let n = String.length line in
    let e = ref 0 in
    while !e < n && is_name_char line.[!e] do incr e done;
    let name = String.sub line 0 !e in
    let err = err ln (if name = "" then "-" else name) in
    if not (is_metric_name name) then
      err (sprintf "sample does not start with a metric name: %S" line)
    else
      match
        if !e < n && line.[!e] = '{' then labels err line !e else Ok ([], !e)
      with
      | Error msg -> err msg
      | Ok (labels, rest) -> (
          let rest = String.trim (String.sub line rest (n - rest)) in
          let value =
            match String.split_on_char ' ' rest with
            | v :: ([] | [ _ ]) -> prom_value v
            | _ -> None
          in
          if value = None then err (sprintf "no parsable value: %S" rest);
          if base_of name = None then err "no TYPE declaration above it";
          let key = (name, List.sort compare labels) in
          match Hashtbl.find_opt series key with
          | Some first ->
              err (sprintf "duplicate series (first at line %d)" first.line)
          | None ->
              Hashtbl.replace series key
                { line = ln; value = Option.value ~default:nan value };
              order := key :: !order)
  in
  List.iteri
    (fun i line ->
      let err = err (i + 1) in
      if line = "" then ()
      else if line.[0] <> '#' then sample (i + 1) line
      else
        match String.split_on_char ' ' line with
        | [ "#"; ("HELP" | "TYPE") ] ->
            err "-" "HELP/TYPE comment without a metric name"
        | "#" :: (("HELP" | "TYPE") as what) :: name :: rest ->
            if not (is_metric_name name) then
              err name (sprintf "invalid metric name in %s comment" what);
            if what = "TYPE" then begin
              (match rest with
              | [ ("counter" | "gauge" | "histogram" | "summary" | "untyped") ]
                -> ()
              | _ -> err name "TYPE is not a known metric type");
              if Hashtbl.mem types name then
                err name "duplicate TYPE declaration"
              else Hashtbl.replace types name (String.concat " " rest)
            end
        | _ -> () (* a free-form comment *))
    lines;
  (* histograms: the _bucket series of one base and label set minus le *)
  let groups = Hashtbl.create 16 in
  List.iter
    (fun ((name, labels) as key) ->
      let n = String.length name - String.length "_bucket" in
      let base = if n > 0 then String.sub name 0 n else "" in
      if String.ends_with ~suffix:"_bucket" name
         && type_of base = Some "histogram"
      then
        let s = Hashtbl.find series key in
        match Option.map prom_value (List.assoc_opt "le" labels) with
        | None -> err s.line base "histogram bucket lacks an le label"
        | Some None ->
            err s.line base
              (sprintf "unparsable le=%S" (List.assoc "le" labels))
        | Some (Some le) ->
            let group = (base, List.remove_assoc "le" labels) in
            let others = Hashtbl.find_opt groups group in
            Hashtbl.replace groups group
              ((le, s) :: Option.value ~default:[] others))
    (List.rev !order);
  Hashtbl.iter
    (fun (base, labels) buckets ->
      let buckets =
        List.stable_sort (fun (a, _) (b, _) -> compare a b) buckets
      in
      let le, last =
        List.fold_left
          (fun (_, prev) (le, s) ->
            if s.value < prev.value then
              err s.line base
                (sprintf "bucket le=%g count %g is below the previous \
                          cumulative count %g"
                   le s.value prev.value);
            (le, s))
          (neg_infinity, { line = 0; value = 0.0 })
          buckets
      in
      let err = err last.line base in
      if le <> infinity then err "histogram lacks a +Inf bucket";
      match Hashtbl.find_opt series (base ^ "_count", labels) with
      | None -> err "histogram has buckets but no _count sample"
      | Some c when c.value <> last.value ->
          err
            (sprintf "+Inf bucket %g disagrees with _count %g" last.value
               c.value)
      | Some _ -> ())
    groups;
  if Hashtbl.length series = 0 then err 0 "-" "no samples";
  Hashtbl.length series

(* ------------------------------------------------------------------ *)
(* Files *)

(* [check ~file text]: a summary of what [text] holds, and every defect
   found in it, by line.  A defect's line is its record's line; a
   whole-file JSON document is one record, and a defect of the file as a
   whole is on line 0. *)
let check ~file text =
  let found = ref [] in
  let err line path msg = found := { file; line; path; msg } :: !found in
  let lines = String.split_on_char '\n' text in
  let records =
    List.mapi (fun i l -> (i + 1, l)) lines
    |> List.filter (fun (_, l) -> String.trim l <> "")
  in
  let summary =
    match (records, J.parse text) with
    | [], _ ->
        err 0 "-" "empty file";
        "nothing"
    | (line, _) :: _, Ok doc ->
        Option.value ~default:"an unknown kind" (document (err line) doc)
    | (_, first) :: _, Error _ when Result.is_ok (J.parse first) ->
        let tags =
          List.filter_map
            (fun (line, l) ->
              match J.parse l with
              | Ok doc -> document (err line) doc
              | Error msg ->
                  err line "$" ("unparsable JSON: " ^ msg);
                  None)
            records
        in
        sprintf "%d JSONL records (%s)" (List.length records)
          (String.concat ", " (List.sort_uniq compare tags))
    | _ -> sprintf "Prometheus text, %d series" (prometheus err lines)
  in
  let by_line (a : defect) (b : defect) = compare a.line b.line in
  (summary, List.stable_sort by_line (List.rev !found))
