(* The knowledge-base files shipped under examples/kb stay parseable and
   behave as documented. *)

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The test binary runs from the build sandbox; the files are attached as
   test dependencies (see test/dune). *)
let kb_dir = Filename.concat (Filename.concat ".." "examples") "kb"

let tests =
  [ Alcotest.test_case "tweety.dl4 parses and reasons" `Quick (fun () ->
        let kb = Surface.parse_kb4_exn (read (Filename.concat kb_dir "tweety.dl4")) in
        let t = Para.create kb in
        Alcotest.(check bool) "sat" true (Para.satisfiable t);
        Alcotest.(check bool)
          "tweety cannot fly" true
          (Truth.equal Truth.False
             (Para.instance_truth t "tweety" (Concept.Atom "Fly"))));
    Alcotest.test_case "access_control.dl4 parses and reasons" `Quick
      (fun () ->
        let kb =
          Surface.parse_kb4_exn
            (read (Filename.concat kb_dir "access_control.dl4"))
        in
        let t = Para.create kb in
        Alcotest.(check bool) "sat" true (Para.satisfiable t);
        Alcotest.(check (list (pair string string)))
          "one conflict"
          [ ("john", "ReadPatientRecordTeam") ]
          (Para.contradictions t));
    Alcotest.test_case "hospital.ofn parses as OWL and matches example 2"
      `Quick (fun () ->
        let kb =
          Owl_functional.parse_ontology_exn
            (read (Filename.concat kb_dir "hospital.ofn"))
        in
        Alcotest.(check bool)
          "classically inconsistent" false
          (Tableau.kb_satisfiable kb);
        let t = Para.create (Kb4.of_classical kb) in
        Alcotest.(check bool) "4-sat" true (Para.satisfiable t));
    Alcotest.test_case "example1.dl4's audit creates its told nodes once"
      `Quick (fun () ->
        (* the census pins every verdict to the tableau: 6 runs over
           three told individuals, which share one saturated base
           instead of each building the three nodes again; the first
           satisfiable run leaves the witness that decides the other
           non-entailments *)
        let kb =
          Surface.parse_kb4_exn (read (Filename.concat kb_dir "example1.dl4"))
        in
        let t = Para.create kb in
        ignore (Audit.census t : Audit.census);
        let work = (Session.cost_totals t).Oracle.work in
        Alcotest.(check (list int))
          "runs, nodes created, branches" [ 6; 3; 3 ]
          [ work.Tableau.runs;
            work.Tableau.nodes_created;
            work.Tableau.branches_explored ])
  ]

let () = Alcotest.run "kb-files" [ ("examples/kb", tests) ]
