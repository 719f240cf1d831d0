(* The artifact checker (artifact.ml, CI's check_artifact): a valid
   artifact of each kind, built in-process by the code that writes it,
   passes; and each check rejects one mutated artifact with that check's
   own message. *)

module J = Json_lite

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse text =
  match J.parse text with Ok j -> j | Error msg -> failwith msg

(* ------------------------------------------------------------------ *)
(* Valid artifacts *)

let trace =
  lazy
    (let saved = Obs.enabled () in
     Obs.set_enabled true;
     Obs.reset ();
     Fun.protect
       ~finally:(fun () ->
         Obs.reset ();
         Obs.set_enabled saved)
       (fun () ->
         ignore (Session.classify (Session.create Paper_examples.example1));
         Obs.trace_json ()))

let flight =
  lazy
    (Flight.reset ();
     Flight.arm ();
     Fun.protect
       ~finally:(fun () ->
         Flight.disarm ();
         Flight.reset ())
       (fun () ->
         ignore (Session.classify (Session.create Paper_examples.example1));
         Flight.dump ()))

let prom =
  lazy
    (let t = Telemetry.create () in
     List.iter
       (fun wall_ns ->
         Telemetry.record t ~op:"query" ~ok:true ~wall_ns
           ~routes:[ ("tableau", 2) ] ())
       [ 1000.0; 5000.0; 70000.0 ];
     Telemetry.record t ~op:"check" ~ok:false ~wall_ns:10.0 ();
     Telemetry.set_kb_health t
       { Telemetry.kb_individuals = 3; kb_tbox_axioms = 1;
         kb_abox_axioms = 4; kb_cached_verdicts = 7;
         kb_truth_counts = [ ("t", 3); ("f", 0); ("B", 1); ("N", 3) ];
         kb_inconsistency_ratio = 0.25 };
     Telemetry.prometheus t)

(* example1's two-atom plan, before and after it runs *)
let plans =
  lazy
    (let para = Para.create Paper_examples.example1 in
     match Cq.parse "?x, ?y <- Doctor(?x), hasPatient(?x, ?y)" with
     | Error msg -> failwith msg
     | Ok q ->
         let plan = Cq.compile para q in
         let planned = Cq.explain_json plan in
         ignore (Cq.run plan);
         (planned, Cq.explain_json plan))

let planned = lazy (fst (Lazy.force plans))
let executed = lazy (snd (Lazy.force plans))

let audits =
  lazy
    (let para = Para.create Paper_examples.example1 in
     let cs = Audit.census para in
     ( Audit.report_json para cs,
       Audit.report_json ~exactly:[ Truth.Both ] para cs ))

let audit = lazy (fst (Lazy.force audits))
let exactly = lazy (snd (Lazy.force audits))
let jsonl docs = String.concat "\n" (List.map Lazy.force docs) ^ "\n"

let valid =
  [ ("Obs.trace_json", trace);
    ("Flight.dump", flight);
    ("Telemetry.prometheus", prom);
    ( "a sample with a timestamp",
      lazy
        (Str.global_replace (Str.regexp_string "dl4_kb_individuals 3")
           "dl4_kb_individuals 3 1700000000000" (Lazy.force prom)) );
    ("Cq.explain_json, not executed", planned);
    ("Cq.explain_json, executed", executed);
    ("a JSONL file of both plans", lazy (jsonl [ planned; executed ]));
    ("Audit.report_json", audit);
    ("Audit.report_json ~exactly", exactly);
    ("a JSONL file of both reports", lazy (jsonl [ audit; exactly ]));
    ("golden/example1.plan.json", lazy (read "golden/example1.plan.json"));
    ( "golden/horn_census.audit.json",
      lazy (read "golden/horn_census.audit.json") ) ]

(* ------------------------------------------------------------------ *)
(* Mutations *)

(* A path names a JSON member or element: "steps.0.binds". *)
let steps path =
  List.map
    (fun s -> match int_of_string_opt s with Some i -> `I i | None -> `K s)
    (String.split_on_char '.' path)

(* [update path f v]: [v] with the value at [path] replaced by [f] of
   it; [f] gets [None] for an absent member and returns [None] to
   remove one. *)
let rec update path f (v : J.t) : J.t =
  match (path, v) with
  | [ `K k ], Obj ms -> (
      match f (List.assoc_opt k ms) with
      | None -> Obj (List.remove_assoc k ms)
      | Some x when List.mem_assoc k ms ->
          Obj (List.map (fun (k', y) -> (k', if k' = k then x else y)) ms)
      | Some x -> Obj (ms @ [ (k, x) ]))
  | `K k :: rest, Obj ms ->
      Obj
        (List.map
           (fun (k', y) -> (k', if k' = k then update rest f y else y))
           ms)
  | [ `I i ], Arr l ->
      Arr
        (List.concat
           (List.mapi
              (fun j y -> if j = i then Option.to_list (f (Some y)) else [ y ])
              l))
  | `I i :: rest, Arr l ->
      Arr (List.mapi (fun j y -> if j = i then update rest f y else y) l)
  | _ -> invalid_arg "update: no such path"

let edit base f = lazy (J.to_string (f (parse (Lazy.force base))))
let set base path x = edit base (update (steps path) (fun _ -> Some x))
let drop base path = edit base (update (steps path) (fun _ -> None))

let value base path =
  List.fold_left
    (fun v -> function
      | `K k -> Option.get (J.member k v)
      | `I i -> List.nth (Option.get (J.to_list v)) i)
    (parse (Lazy.force base)) (steps path)

let append base path x =
  edit base
    (update (steps path) (function
      | Some (Arr l) -> Some (J.Arr (l @ [ x ]))
      | _ -> invalid_arg "append: not an array"))

(* text edits, for the Prometheus reader *)
let replace base sub by =
  lazy
    (let text = Lazy.force base in
     match Str.search_forward (Str.regexp_string sub) text 0 with
     | i ->
         String.sub text 0 i ^ by
         ^ String.sub text (i + String.length sub)
             (String.length text - i - String.length sub)
     | exception Not_found -> invalid_arg ("replace: no " ^ sub))

let add_line base line = lazy (Lazy.force base ^ line ^ "\n")

let keep_lines base p =
  lazy
    (String.concat "\n"
       (List.filter p (String.split_on_char '\n' (Lazy.force base))))

(* One child span (a span with a parent), found in the trace. *)
let child =
  lazy
    (let events = Option.get (J.to_list (value trace "traceEvents")) in
     let rec find i = function
       | e :: rest -> (
           match Option.bind (J.member "args" e) (J.member "parent") with
           | Some (Str p) when p <> "0" -> i
           | _ -> find (i + 1) rest)
       | [] -> failwith "no child span in the trace"
     in
     find 0 events)

let event ~ts ~dur =
  J.Obj
    [ ("name", Str "synthetic"); ("cat", Str "test"); ("ph", Str "X");
      ("ts", Num ts); ("dur", Num dur); ("pid", Num 1.0); ("tid", Num 7.0) ]

type kind = Trace | Flight | Prom | Plan | Audit

(* (kind, check, mutated artifact, the defect that must be reported) *)
let mutants =
  let n x = J.Num x and s x = J.Str x in
  let child_at k = Printf.sprintf "traceEvents.%d.%s" (Lazy.force child) k in
  [ (Trace, "a traceEvents array", set trace "traceEvents" (s "none"),
     "$.traceEvents: want an array");
    (Trace, "ph is X", set trace "traceEvents.0.ph" (s "B"),
     "$.traceEvents[0].ph: want one of X");
    (Trace, "name is a string", set trace "traceEvents.0.name" (n 1.0),
     "$.traceEvents[0].name: want a string");
    (Trace, "cat is a string", drop trace "traceEvents.0.cat",
     "$.traceEvents[0].cat: missing");
    (Trace, "ts is a number", set trace "traceEvents.0.ts" (s "0"),
     "$.traceEvents[0].ts: want a number");
    (Trace, "pid is a number", drop trace "traceEvents.0.pid",
     "$.traceEvents[0].pid: missing");
    (Trace, "tid is a number", set trace "traceEvents.0.tid" J.Null,
     "$.traceEvents[0].tid: want a number");
    (Trace, "dur >= 0", set trace "traceEvents.0.dur" (n (-1.0)),
     "$.traceEvents[0].dur: want a number >= 0");
    (Trace, "args.id is unique",
     lazy
       (Lazy.force
          (set trace "traceEvents.1.args.id"
             (value trace "traceEvents.0.args.id"))),
     "is not unique");
    (Trace, "args.parent exists",
     lazy (Lazy.force (set trace (child_at "args.parent") (s "999999"))),
     "parent id 999999 is not in the trace");
    (Trace, "a parent contains its child",
     lazy (Lazy.force (set trace (child_at "dur") (n 1e9))),
     "escapes its parent");
    (Trace, "spans on one tid nest or are disjoint",
     append
       (append trace "traceEvents" (event ~ts:0.0 ~dur:100.0))
       "traceEvents" (event ~ts:50.0 ~dur:100.0),
     "tid 7: span synthetic partially overlaps synthetic");
    (Flight, "the schema tag", set flight "schema" (s "dl4-flight/0"),
     "unknown artifact kind \"dl4-flight/0\"");
    (Flight, "capacity > 0", set flight "capacity" (n 0.0),
     "$.capacity: want a number >= 1");
    (Flight, "overflow_dropped >= 0", set flight "overflow_dropped" (n (-1.0)),
     "$.overflow_dropped: want a number >= 0");
    (Flight, "a domains array", set flight "domains" (J.Obj []),
     "$.domains: want an array");
    (Flight, "tid >= 0", set flight "domains.0.tid" (n (-1.0)),
     "$.domains[0].tid: want a number >= 0");
    (Flight, "total >= 0", set flight "domains.0.total" (n (-1.0)),
     "$.domains[0].total: want a number >= 0");
    (Flight, "dropped = max(0, total - capacity)",
     set flight "domains.0.dropped" (n 5.0),
     "$.domains[0].dropped: 5, want max(0, total");
    (Flight, "min(total, capacity) events", drop flight "domains.0.events.0",
     "$.domains[0].events: holds");
    (Flight, "ns >= 0", set flight "domains.0.events.0.ns" (n (-1.0)),
     "$.domains[0].events[0].ns: want a number >= 0");
    (Flight, "ns never decreases", set flight "domains.0.events.1.ns" (n 0.0),
     "$.domains[0].events[1].ns: 0 decreases from");
    (Flight, "kind is non-empty", set flight "domains.0.events.0.kind" (s ""),
     "$.domains[0].events[0].kind: want a non-empty string");
    (Flight, "at least one event",
     edit flight
       (update (steps "domains.0") (fun _ ->
            Some
              (J.Obj
                 [ ("tid", n 0.0); ("total", n 0.0); ("dropped", n 0.0);
                   ("events", J.Arr []) ]))),
     "$.domains: the dump holds no events");
    (Prom, "HELP names a valid metric",
     replace prom "# HELP dl4_uptime_seconds" "# HELP 9dl4_uptime_seconds",
     "9dl4_uptime_seconds: invalid metric name in HELP comment");
    (Prom, "TYPE names a metric", add_line prom "# TYPE",
     "HELP/TYPE comment without a metric name");
    (Prom, "a known TYPE",
     replace prom "uptime_seconds gauge" "uptime_seconds meter",
     "dl4_uptime_seconds: TYPE is not a known metric type");
    (Prom, "TYPE declared once",
     add_line prom "# TYPE dl4_requests_total counter",
     "dl4_requests_total: duplicate TYPE declaration");
    (Prom, "a sample starts with a metric name", add_line prom "{op=\"x\"} 1",
     "sample does not start with a metric name");
    (Prom, "a well-formed label set",
     replace prom "{box=\"tbox\"} 1" "{box=\"tbox\" 1",
     "dl4_kb_axioms: expected ',' or '}' after label \"box\"");
    (Prom, "label names have no ':'",
     replace prom "{box=\"tbox\"}" "{b:ox=\"tbox\"}",
     "dl4_kb_axioms: invalid label name \"b:ox\"");
    (Prom, "only three escapes",
     replace prom "{box=\"tbox\"}" "{box=\"t\\box\"}",
     "dl4_kb_axioms: illegal escape '\\b'");
    (Prom, "a parsable value",
     replace prom "dl4_kb_individuals 3" "dl4_kb_individuals three",
     "dl4_kb_individuals: no parsable value: \"three\"");
    (Prom, "TYPE above the sample",
     replace prom "# HELP dl4_kb_individuals"
       "dl4_requests_total{op=\"early\"} 1\n# HELP dl4_kb_individuals",
     "dl4_requests_total: no TYPE declaration above it");
    (Prom, "_bucket needs a histogram base",
     add_line prom "dl4_kb_individuals_bucket{le=\"1\"} 1",
     "dl4_kb_individuals_bucket: no TYPE declaration above it");
    (Prom, "no series repeats", add_line prom "dl4_kb_axioms{box=\"abox\"} 4",
     "dl4_kb_axioms: duplicate series (first at line");
    (Prom, "a parsable le", replace prom "le=\"8.192e-06\"" "le=\"8.192e-0x\"",
     "dl4_request_duration_seconds: unparsable le=\"8.192e-0x\"");
    (Prom, "an le label",
     replace prom "le=\"1.024e-06\"" "lf=\"1.024e-06\"",
     "dl4_request_duration_seconds: histogram bucket lacks an le label");
    (Prom, "cumulative buckets",
     replace prom "le=\"8.192e-06\"} 2" "le=\"8.192e-06\"} 0",
     "bucket le=8.192e-06 count 0 is below the previous cumulative count 1");
    (Prom, "a +Inf bucket",
     keep_lines prom (fun l ->
         not (String.ends_with ~suffix:"{op=\"query\",le=\"+Inf\"} 3" l)),
     "dl4_request_duration_seconds: histogram lacks a +Inf bucket");
    (Prom, "+Inf equals _count",
     replace prom "_count{op=\"query\"} 3" "_count{op=\"query\"} 4",
     "+Inf bucket 3 disagrees with _count 4");
    (Prom, "a _count sample",
     replace prom "dl4_request_duration_seconds_count{op=\"query\"} 3\n" "",
     "histogram has buckets but no _count sample");
    (Prom, "at least one sample",
     keep_lines prom (fun l -> l = "" || l.[0] = '#'), "-: no samples");
    (Plan, "the schema tag", set executed "schema" (s "dl4-plan/9"),
     "unknown artifact kind \"dl4-plan/9\"");
    (Plan, "a non-empty query", set executed "query" (s ""),
     "$.query: want a non-empty string");
    (Plan, "vars is a string list", set executed "vars" (J.Arr [ n 1.0 ]),
     "$.vars[0]: want a string");
    (Plan, "individuals is a non-negative integer",
     set executed "individuals" (n (-1.0)),
     "$.individuals: want an integer >= 0");
    (Plan, "threshold is a non-negative integer",
     set executed "threshold" (n 1.5),
     "$.threshold: want an integer >= 0");
    (Plan, "forced", set executed "forced" (s "merge"),
     "$.forced: want null or one of nested_loop, hash_join");
    (Plan, "order", set executed "order" (s "random"),
     "$.order: want one of cost, syntactic");
    (Plan, "executed is a boolean", set executed "executed" (s "yes"),
     "$.executed: want a boolean");
    (Plan, "a non-empty steps array", set executed "steps" (J.Arr []),
     "$.steps: want a non-empty array");
    (Plan, "a non-empty atom", set executed "steps.0.atom" (s ""),
     "$.steps[0].atom: want a non-empty string");
    (Plan, "kind is concept or role", set executed "steps.0.kind" (s "data"),
     "$.steps[0].kind: want one of concept, role");
    (Plan, "binds is a string list", set executed "steps.0.binds" (s "x"),
     "$.steps[0].binds: want an array");
    (Plan, "filter exactly when binds is empty",
     set executed "steps.0.filter" (J.Bool true),
     "$.steps[0].filter: must be true exactly when binds is empty");
    (Plan, "est_rows is a non-negative integer",
     set executed "steps.0.est_rows" (n (-1.0)),
     "$.steps[0].est_rows: want an integer >= 0");
    (Plan, "est_cost_ns >= 0", set executed "steps.0.est_cost_ns" (n (-1.0)),
     "$.steps[0].est_cost_ns: want a number >= 0");
    (Plan, "an executed step has a strategy",
     set executed "steps.0.strategy" J.Null,
     "$.steps[0].strategy: null in an executed plan");
    (Plan, "a step not executed has no strategy",
     set planned "steps.0.strategy" (s "hash_join"),
     "$.steps[0].strategy: set in a plan that was not executed");
    (Plan, "a known strategy", set executed "steps.0.strategy" (s "merge"),
     "$.steps[0].strategy: want null or one of nested_loop, hash_join, filter");
    (Plan, "an executed step has actual_rows",
     set executed "steps.0.actual_rows" J.Null,
     "$.steps[0].actual_rows: null in an executed plan");
    (Plan, "a step not executed has no probes",
     set planned "steps.0.probes" (n 3.0),
     "$.steps[0].probes: set in a plan that was not executed");
    (Plan, "probes is a non-negative integer",
     set executed "steps.0.probes" (n (-1.0)),
     "$.steps[0].probes: want null or an integer >= 0");
    (Plan, "binds partition vars",
     set executed "steps.1.binds" (J.Arr [ s "x" ]),
     "$.steps: binds [x, x] do not partition vars [x, y]");
    (Plan, "at least one plan", lazy "", "-: empty file");
    (Plan, "every line parses",
     lazy (jsonl [ planned; lazy "{\"schema\":" ]),
     "$: unparsable JSON");
    (Audit, "the schema tag", set audit "schema" (s "dl4-audit/0"),
     "unknown artifact kind \"dl4-audit/0\"");
    (Audit, "kb dimensions", set audit "kb.individuals" (n (-1.0)),
     "$.kb.individuals: want an integer >= 0");
    (Audit, "kb has abox_axioms", drop audit "kb.abox_axioms",
     "$.kb.abox_axioms: missing");
    (Audit, "counts keyed by t, f, B and N", set audit "counts.X" (n 0.0),
     "$.counts.X: unexpected key");
    (Audit, "counts are non-negative", set audit "counts.N" (n (-3.0)),
     "$.counts.N: want an integer >= 0");
    (Audit, "counts sum to the sweep", set audit "counts.N" (n 4.0),
     "$.counts: sum to 8, want individuals x concepts + role_facts = 7");
    (Audit, "decided = t + f + B", set audit "decided" (n 5.0),
     "$.decided: 5, want t + f + B = 4");
    (Audit, "the ratio is in [0, 1]", set audit "inconsistency_ratio" (n 1.5),
     "$.inconsistency_ratio: want a number in [0, 1]");
    (Audit, "the ratio is B / decided", set audit "inconsistency_ratio" (n 0.3),
     "$.inconsistency_ratio: 0.3, want B / decided = 0.25");
    (Audit, "one per_concept row per concept", drop audit "per_concept.1",
     "$.per_concept: has 1 rows for 2 concepts");
    (Audit, "no duplicate concept",
     set audit "per_concept.1.concept" (s "Doctor"),
     "$.per_concept[1].concept: duplicate concept \"Doctor\"");
    (Audit, "per_concept B >= 0", set audit "per_concept.0.B" (n (-1.0)),
     "$.per_concept[0].B: want an integer >= 0");
    (Audit, "per_concept decided >= B",
     set audit "per_concept.0.decided" (n 0.0),
     "$.per_concept[0].decided: 0 is below B = 1");
    (Audit, "b_rate = B / decided", set audit "per_concept.0.b_rate" (n 0.9),
     "$.per_concept[0].b_rate: 0.9, want B / decided = 0.5");
    (Audit, "top rows are named",
     set audit "top_individuals.0.individual" (s ""),
     "$.top_individuals[0].individual: want a non-empty string");
    (Audit, "top rows have B >= 1", set audit "top_concepts.0.B" (n 0.0),
     "$.top_concepts[0].B: want an integer >= 1");
    (Audit, "top rows sorted by descending B",
     append audit "top_concepts"
       (J.Obj [ ("concept", s "Patient"); ("B", n 2.0) ]),
     "$.top_concepts[1].B: not sorted by descending B");
    (Audit, "a top individual has a provenance",
     drop audit "top_individuals.0.provenance",
     "$.top_individuals[0].provenance: missing");
    (Audit, "a provenance lists concepts",
     drop audit "top_individuals.0.provenance.concepts",
     "$.top_individuals[0].provenance.concepts: missing");
    (Audit, "facts when exactly", drop exactly "facts",
     "$.facts: missing while exactly is present");
    (Audit, "no facts without exactly", set audit "facts" (J.Arr []),
     "$.facts: present without exactly");
    (Audit, "exactly is over t, f, B and N",
     set exactly "exactly" (J.Arr [ s "T" ]),
     "$.exactly[0]: want one of t, f, B, N");
    (Audit, "a fact is named", set exactly "facts.0.fact" (s ""),
     "$.facts[0].fact: want a non-empty string");
    (Audit, "a fact's value is in exactly", set exactly "facts.0.value" (s "t"),
     "$.facts[0].value: \"t\" is outside exactly");
    (Audit, "at least one report", lazy "\n\n", "-: empty file");
    (Audit, "a known kind", lazy "{\"schema\":\"dl4-census/1\"}",
     "$: unknown artifact kind \"dl4-census/1\"") ]

let defects text = snd (Artifact.check ~file:"artifact" text)

let shown ds = String.concat "\n" (List.map Artifact.to_string ds)

let contains s sub =
  match Str.search_forward (Str.regexp_string sub) s 0 with
  | _ -> true
  | exception Not_found -> false

let kind_name = function
  | Trace -> "trace"
  | Flight -> "flight"
  | Prom -> "prom"
  | Plan -> "plan"
  | Audit -> "audit"

let () =
  Alcotest.run "artifact"
    [ ( "valid",
        List.map
          (fun (label, text) ->
            Alcotest.test_case label `Quick (fun () ->
                Alcotest.(check string)
                  "no defects" ""
                  (shown (defects (Lazy.force text)))))
          valid );
      ( "rejected",
        List.map
          (fun (kind, check, text, expect) ->
            Alcotest.test_case (kind_name kind ^ ": " ^ check) `Quick
              (fun () ->
                let ds = defects (Lazy.force text) in
                let found d = contains (Artifact.to_string d) expect in
                if not (List.exists found ds) then
                  Alcotest.failf "want a defect with %S, got:\n%s" expect
                    (shown ds)))
          mutants ) ]
