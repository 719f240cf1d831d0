(* Persistent KB store: dl4-snap round-trips and rejection of bad files.

   The round-trip contract is differential: a session restored from a
   snapshot must answer every query exactly like the warm session the
   snapshot was taken from, and like a cold session per query — and pay
   zero tableau calls doing it, because every atomic verdict travels in
   the snapshot. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let kbs =
  [ ("example1", Paper_examples.example1);
    ("example2", Paper_examples.example2);
    ("example3", Paper_examples.example3);
    ("example4", Paper_examples.example4);
    (* bench S9's KB: its full atomic grid is what a warm daemon serves *)
    ("gen41", Bench_kb.s9 ()) ]

(* the warming the CLI's [dl4 snapshot] performs: consistency, the full
   atomic truth grid (both polarities), classification *)
let warm_session kb =
  let s = Session.create kb in
  ignore (Para.satisfiable s : bool);
  ignore (Para.contradictions s : (string * string) list);
  ignore (Session.classification s : Classify.t);
  s

let grid s =
  let sg = Kb4.signature (Session.kb s) in
  List.concat_map
    (fun a ->
      List.map
        (fun c -> (a, c, Para.instance_truth s a (Concept.Atom c)))
        sg.Axiom.concepts)
    sg.Axiom.individuals

let tableau_calls s = Oracle.tableau_calls (Session.oracle s)

let tmp_path suffix =
  Filename.temp_file "dl4_store_test" suffix

let restored_exn ?kb snap =
  match Store.restore ?kb snap with
  | Ok s -> s
  | Error e -> Alcotest.failf "restore: %s" (Store.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Round trips *)

let roundtrip_case (name, kb) =
  Alcotest.test_case name `Quick (fun () ->
      let s1 = warm_session kb in
      let snap = Store.capture s1 in
      let path = tmp_path ".snap" in
      (match Store.save snap path with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save: %s" (Store.error_to_string e));
      let snap2 =
        match Store.load path with
        | Ok s -> s
        | Error e -> Alcotest.failf "load: %s" (Store.error_to_string e)
      in
      Sys.remove path;
      let s2 = restored_exn ~kb snap2 in
      (* the restore itself must not pay tableau calls: everything the
         warm grid needs travelled in the snapshot *)
      checki "restore is free" 0 (tableau_calls s2);
      (* differential: identical verdicts on the full atomic grid *)
      let g1 = grid s1 and g2 = grid s2 in
      List.iter2
        (fun (a1, c1, v1) (a2, c2, v2) ->
          checkb
            (Printf.sprintf "%s:%s = %s:%s" a1 c1 a2 c2)
            true
            (a1 = a2 && c1 = c2 && Truth.equal v1 v2))
        g1 g2;
      (* ... and with a cold session per query, as separate `dl4 query`
         runs answer *)
      List.iter
        (fun (a, c, v) ->
          checkb
            (Printf.sprintf "%s:%s = cold" a c)
            true
            (Truth.equal v
               (Para.instance_truth (Session.create kb) a (Concept.Atom c))))
        g2;
      (* ... and re-answering the whole grid stayed warm *)
      checki "warm requery pays no tableau calls" 0 (tableau_calls s2);
      (* classification transferred, not rebuilt *)
      (match Session.classification_if_built s2 with
      | None -> Alcotest.fail "classification not restored"
      | Some c2 ->
          Alcotest.(check (list (pair string (list string))))
            "classification contents" (Session.classify s1)
            c2.Classify.supers);
      (* cost totals continue the saved history *)
      let t1 = Session.cost_totals s1 and t2 = Session.cost_totals s2 in
      checki "verdict totals carried over" t1.Oracle.verdicts
        t2.Oracle.verdicts;
      checki "rule-firing totals carried over"
        (Array.fold_left ( + ) 0 t1.Oracle.work.Tableau.rule_firings)
        (Array.fold_left ( + ) 0 t2.Oracle.work.Tableau.rule_firings);
      (* cache stats carried over (plus the hits the requery just paid) *)
      let c1 = Oracle.cache_stats (Session.oracle s1) in
      let c2 = Oracle.cache_stats (Session.oracle s2) in
      checki "cache size identical" c1.Verdict_cache.size
        c2.Verdict_cache.size;
      checkb "misses carried over" true
        (c2.Verdict_cache.misses = c1.Verdict_cache.misses))

let roundtrip_tests = List.map roundtrip_case kbs

(* ------------------------------------------------------------------ *)
(* In-memory string round trip and LRU preservation *)

let string_tests =
  [ Alcotest.test_case "of_string inverts to_string" `Quick (fun () ->
        let s = warm_session Paper_examples.example3 in
        let snap = Store.capture s in
        match Store.of_string (Store.to_string snap) with
        | Error e -> Alcotest.failf "decode: %s" (Store.error_to_string e)
        | Ok snap2 ->
            checki "entry count" (List.length snap.Store.s_entries)
              (List.length snap2.Store.s_entries);
            checkb "kb identical" true (snap.Store.s_kb = snap2.Store.s_kb);
            checkb "classical identical" true
              (snap.Store.s_classical = snap2.Store.s_classical);
            checkb "config identical" true
              (snap.Store.s_config = snap2.Store.s_config);
            (* export is in LRU order; a decoded snapshot preserves it *)
            let queries es =
              List.map (fun e -> e.Oracle.x_query) es
            in
            checkb "entry order preserved" true
              (queries snap.Store.s_entries = queries snap2.Store.s_entries);
            checkb "totals identical" true
              (snap.Store.s_totals = snap2.Store.s_totals);
            let costs es = List.map (fun e -> e.Oracle.x_cost) es in
            checkb "cost records identical" true
              (costs snap.Store.s_entries = costs snap2.Store.s_entries));
    Alcotest.test_case "provenance survives the round trip" `Quick (fun () ->
        let s = warm_session Paper_examples.example1 in
        let snap = Store.capture s in
        let s2 = restored_exn ~kb:Paper_examples.example1 snap in
        (* a delta touching john must evict john-dependent verdicts in
           the restored session exactly as in a live one — that only
           works if provenance was re-posted on import *)
        let d =
          match Delta.parse "+ john : Patient.\n" with
          | Ok d -> d
          | Error e -> Alcotest.failf "delta: %s" e
        in
        let st = Session.apply s2 d in
        checkb "john-dependent verdicts evicted" true (st.Oracle.evicted > 0);
        checkb "not a full flush" true (not st.Oracle.flushed);
        checkb "independent verdicts retained" true (st.Oracle.retained > 0));
    Alcotest.test_case "a restored Horn session applies a delta alike" `Quick
      (fun () ->
        (* the restored dependency index is rebuilt from the imported
           provenance alone; it must evict and retain exactly what the
           live session's index does *)
        let kb = Paper_examples.example1 in
        let config = { Session.default_config with backend = Backend.Horn } in
        let live = Session.create ~config kb in
        ignore (Para.satisfiable live : bool);
        ignore (Para.contradictions live : (string * string) list);
        ignore (Session.classification live : Classify.t);
        let restored = restored_exn ~kb (Store.capture live) in
        let d =
          match
            Delta.parse "+ hasPatient(john, mary).\n- mary : Patient.\n"
          with
          | Ok d -> d
          | Error e -> Alcotest.failf "delta: %s" e
        in
        let st_live = Session.apply live d in
        let st_restored = Session.apply restored d in
        checkb "apply stats equal" true (st_live = st_restored);
        checkb "the delta evicted something" true (st_live.Oracle.evicted > 0);
        checkb "the delta retained something" true
          (st_live.Oracle.retained > 0);
        let resident s =
          List.sort compare
            (List.map
               (fun e ->
                 ( Oracle.query_to_string e.Oracle.x_query,
                   e.Oracle.x_verdict,
                   e.Oracle.x_prov ))
               (Oracle.export_entries (Session.oracle s)))
        in
        checkb "resident entries equal" true
          (resident live = resident restored))
  ]

(* ------------------------------------------------------------------ *)
(* Golden file: test/golden/tweety.snap was written by
   `dl4 snapshot examples/kb/tweety.dl4 --backend tableau` before cost
   records and totals carried Tableau.stats.  The dl4-snap/4 bytes must
   not move: decoding and re-encoding reproduces the file exactly, and it
   still restores warm. *)

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let golden_tests =
  [ Alcotest.test_case "tweety.snap re-encodes byte-identically" `Quick
      (fun () ->
        let bytes = read (Filename.concat "golden" "tweety.snap") in
        let snap =
          match Store.of_string bytes with
          | Ok s -> s
          | Error e -> Alcotest.failf "decode: %s" (Store.error_to_string e)
        in
        let work =
          List.filter_map (fun e -> e.Oracle.x_cost) snap.Store.s_entries
          |> List.map (fun c -> c.Oracle.c_work)
        in
        (* the file exercises the named pairs and the clash cell *)
        checkb "rule firings recorded" true
          (List.exists (fun w -> Tableau.rule_counts w <> []) work);
        checkb "clashes recorded" true
          (List.exists (fun w -> w.Tableau.clashes > 0) work);
        checkb "same bytes back" true (String.equal bytes (Store.to_string snap)));
    Alcotest.test_case "tweety.snap restores with zero tableau calls" `Quick
      (fun () ->
        let kb =
          Surface.parse_kb4_exn
            (read (Filename.concat (Filename.concat ".." "examples") "kb/tweety.dl4"))
        in
        let snap =
          match Store.load (Filename.concat "golden" "tweety.snap") with
          | Ok s -> s
          | Error e -> Alcotest.failf "load: %s" (Store.error_to_string e)
        in
        let s = restored_exn ~kb snap in
        let g = grid s in
        checkb "grid answered" true (g <> []);
        checki "restore and requery are free" 0 (tableau_calls s)) ]

(* ------------------------------------------------------------------ *)
(* Rejection: corrupt, truncated, wrong-version, mismatched files never
   restore — they fail with a typed error the CLI turns into a warning
   and a cold build. *)

let expect_error name data pred =
  match Store.of_string data with
  | Ok _ -> Alcotest.failf "%s: decoded successfully" name
  | Error e ->
      checkb
        (Printf.sprintf "%s rejected (%s)" name (Store.error_to_string e))
        true (pred e)

let rejection_tests =
  let base () = Store.to_string (Store.capture (warm_session Paper_examples.example3)) in
  [ Alcotest.test_case "bit flip fails the section checksum" `Quick (fun () ->
        let data = base () in
        let b = Bytes.of_string data in
        (* flip a byte well inside the payload area *)
        let pos = String.length data - 7 in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
        expect_error "bit flip" (Bytes.to_string b) (function
          | Store.Bad_checksum _ -> true
          | _ -> false));
    Alcotest.test_case "truncation is detected" `Quick (fun () ->
        let data = base () in
        List.iter
          (fun keep ->
            expect_error
              (Printf.sprintf "truncated to %d bytes" keep)
              (String.sub data 0 keep)
              (function
                | Store.Corrupt _ | Store.Bad_magic | Store.Bad_checksum _ ->
                    true
                | _ -> false))
          [ 0; 4; 11; String.length data / 2; String.length data - 1 ]);
    Alcotest.test_case "future version is refused" `Quick (fun () ->
        let data = base () in
        (* the u32 version sits right after the 8-byte magic: a version
           strictly beyond the one this build writes is refused, and so
           is the previous format *)
        List.iter
          (fun other ->
            let b = Bytes.of_string data in
            Bytes.set b 8 (Char.chr other);
            expect_error
              (Printf.sprintf "version %d" other)
              (Bytes.to_string b)
              (function
                | Store.Bad_version v -> v = other
                | _ -> false))
          [ Store.version + 1; Store.version - 1 ]);
    Alcotest.test_case "not a snapshot at all" `Quick (fun () ->
        expect_error "garbage" "definitely not a snapshot" (function
          | Store.Bad_magic -> true
          | _ -> false));
    Alcotest.test_case "restore refuses a different KB" `Quick (fun () ->
        let snap = Store.capture (warm_session Paper_examples.example3) in
        match Store.restore ~kb:Paper_examples.example1 snap with
        | Ok _ -> Alcotest.fail "mismatched KB restored"
        | Error Store.Kb_mismatch -> ()
        | Error e ->
            Alcotest.failf "wrong error: %s" (Store.error_to_string e));
    Alcotest.test_case "restore refuses an inconsistent classical KB" `Quick
      (fun () ->
        (* a snapshot whose stored K̄ is not the transform of its stored
           KB survived its checksums but is semantically doctored *)
        let snap = Store.capture (warm_session Paper_examples.example3) in
        let doctored =
          { snap with Store.s_classical = Transform.kb Paper_examples.example1 }
        in
        match Store.restore doctored with
        | Ok _ -> Alcotest.fail "doctored snapshot restored"
        | Error (Store.Corrupt _) -> ()
        | Error e ->
            Alcotest.failf "wrong error: %s" (Store.error_to_string e));
    Alcotest.test_case "missing file is an Io error" `Quick (fun () ->
        match Store.load "/nonexistent/dl4.snap" with
        | Ok _ -> Alcotest.fail "loaded a nonexistent file"
        | Error (Store.Io _) -> ()
        | Error e ->
            Alcotest.failf "wrong error: %s" (Store.error_to_string e)) ]

let () =
  Alcotest.run "store"
    [ ("roundtrip", roundtrip_tests);
      ("string", string_tests);
      ("golden", golden_tests);
      ("rejection", rejection_tests) ]
