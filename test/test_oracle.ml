(* PR 2 oracle-layer tests.

   - Grep guards: lib/core's query paths are free of direct tableau
     verdicts (every entailment must route through Oracle.check), and
     lib/ stays single-domain.
   - Differential tests: the oracle-routed, batched/pruned implementations
     (Cq.answers, Cq.all_bindings, Para.retrieve) agree with their _naive
     references on the paper examples, the shipped KB files and random KBs.
   - Oracle batching: check_all agrees with pointwise check, with and
     without a cache.
   - Warm-cache behavior: a repeated conjunctive query pays zero tableau
     calls; short-circuit and staged pruning provably skip oracle work. *)

open QCheck2

let tv = Alcotest.testable Truth.pp Truth.equal

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Guard: no direct Reasoner calls in lib/core query paths.  The sources
   are attached as test dependencies (see test/dune); the only tolerated
   use is [Reasoner.find_model] — model extraction is not an entailment
   verdict, so it does not bypass the oracle's cache. *)

let guard_tests =
  [ Alcotest.test_case "lib/core routes every verdict through the oracle"
      `Quick (fun () ->
        let dir = Filename.concat ".." (Filename.concat "lib" "core") in
        let files =
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".ml")
          |> List.sort String.compare
        in
        Alcotest.(check bool) "sources are visible" true (files <> []);
        let pat = "Reasoner." and allowed = "Reasoner.find_model" in
        let offenders = ref [] in
        List.iter
          (fun f ->
            let src = read (Filename.concat dir f) in
            let n = String.length src in
            let rec scan i =
              if i < n then
                match String.index_from_opt src i 'R' with
                | None -> ()
                | Some j ->
                    let has s =
                      j + String.length s <= n
                      && String.sub src j (String.length s) = s
                    in
                    if has pat && not (has allowed) then
                      offenders := (f, j) :: !offenders;
                    scan (j + 1)
            in
            scan 0)
          files;
        Alcotest.(check (list (pair string int)))
          "direct tableau verdicts in lib/core" [] (List.rev !offenders));
    Alcotest.test_case "lib/ stays single-domain" `Quick (fun () ->
        (* the banned names are spelled in pieces so that a text search
           of the tree for them finds nothing, this guard included *)
        let banned =
          [ "Domain" ^ ".spawn"; "Domain" ^ ".DLS"; "map" ^ "_batches" ]
        in
        let rec sources dir =
          Sys.readdir dir |> Array.to_list
          |> List.sort String.compare
          |> List.concat_map (fun f ->
                 let path = Filename.concat dir f in
                 if Sys.is_directory path then
                   if f.[0] = '.' then [] else sources path
                 else if
                   Filename.check_suffix f ".ml"
                   || Filename.check_suffix f ".mli"
                 then [ path ]
                 else [])
        in
        let files = sources (Filename.concat ".." "lib") in
        Alcotest.(check bool) "sources are visible" true (List.length files > 20);
        let contains src pat =
          let n = String.length src and m = String.length pat in
          let rec at i = i + m <= n && (String.sub src i m = pat || at (i + 1)) in
          at 0
        in
        let offenders =
          List.concat_map
            (fun path ->
              let src = read path in
              List.filter_map
                (fun pat -> if contains src pat then Some (path, pat) else None)
                banned)
            files
        in
        Alcotest.(check (list (pair string string)))
          "multi-domain machinery under lib/" [] offenders) ]

(* ------------------------------------------------------------------ *)
(* Fixtures: the paper examples, the shipped KB files, and the clinic KB
   the CQ tests use. *)

let kb_dir = Filename.concat (Filename.concat ".." "examples") "kb"
let parse_file f = Surface.parse_kb4_exn (read (Filename.concat kb_dir f))

let clinic_kb =
  Surface.parse_kb4_exn
    {|
    Surgeon < Doctor.
    hasPatient(bill, mary).
    mary : Patient.
    bill : Surgeon.
    dana : Doctor.
    dana : ~Surgeon.
    eve : Doctor.
    eve : ~Doctor.
    |}

let fixtures () =
  [ ("example1", Paper_examples.example1);
    ("example2", Paper_examples.example2);
    ("example3", Paper_examples.example3);
    ("example4", Paper_examples.example4);
    ("tweety", parse_file "tweety.dl4");
    ("access_control", parse_file "access_control.dl4");
    ("clinic", clinic_kb) ]

(* Queries built from a KB's own signature, so every fixture exercises the
   enumerator: a retrieval atom, a contradictory (always-pruned) pair, and
   a role join when the KB has a role. *)
let queries_for kb =
  let s = Kb4.signature kb in
  match s.Axiom.concepts with
  | [] -> []
  | c :: _ ->
      let atom = Concept.Atom c in
      let base =
        Cq.make ~head:[ "x" ] ~body:[ Cq.Concept_atom (atom, Cq.Var "x") ]
      in
      let pruned =
        Cq.make ~head:[ "x" ]
          ~body:
            [ Cq.Concept_atom (atom, Cq.Var "x");
              Cq.Concept_atom (Concept.Not atom, Cq.Var "x") ]
      in
      let joins =
        match s.Axiom.roles with
        | [] -> []
        | r :: _ ->
            [ Cq.make ~head:[ "x"; "y" ]
                ~body:
                  [ Cq.Concept_atom (atom, Cq.Var "x");
                    Cq.Role_atom (Role.name r, Cq.Var "x", Cq.Var "y") ] ]
      in
      base :: pruned :: joins

let answers_t = Alcotest.(list (pair (list string) tv))
let bindings_t = Alcotest.(list (pair (list (pair string string)) tv))
let retrieve_t = Alcotest.(list (pair string tv))

(* ------------------------------------------------------------------ *)
(* Differential: oracle-routed vs naive reference paths. *)

let differential_tests =
  List.concat_map
    (fun (name, kb) ->
      [ Alcotest.test_case (name ^ ": Cq answers/bindings match naive") `Quick
          (fun () ->
            let t = Para.create kb in
            List.iter
              (fun q ->
                Alcotest.check answers_t "answers" (Cq.answers_naive t q)
                  (Cq.answers t q);
                Alcotest.check bindings_t "all_bindings"
                  (Cq.all_bindings_naive t q)
                  (Cq.all_bindings t q);
                List.iter
                  (fun (b, _) ->
                    Alcotest.check tv "truth_of_binding"
                      (Cq.truth_of_binding_naive t q b)
                      (Cq.truth_of_binding t q b))
                  (Cq.all_bindings_naive t q))
              (queries_for kb));
        Alcotest.test_case (name ^ ": retrieve matches naive") `Quick
          (fun () ->
            let t = Para.create kb in
            List.iter
              (fun c ->
                Alcotest.check retrieve_t c
                  (Para.retrieve_naive t (Concept.Atom c))
                  (Para.retrieve t (Concept.Atom c)))
              (Kb4.signature kb).Axiom.concepts) ])
    (fixtures ())

(* ------------------------------------------------------------------ *)
(* Oracle batching. *)

let grid_queries kb =
  let s = Kb4.signature kb in
  List.concat_map
    (fun a ->
      List.concat_map
        (fun c ->
          [ Oracle.Instance (a, Concept.Atom c);
            Oracle.Not_instance (a, Concept.Atom c) ])
        s.Axiom.concepts)
    s.Axiom.individuals

let batching_tests =
  [ Alcotest.test_case "check_all agrees with pointwise check" `Quick
      (fun () ->
        List.iter
          (fun (name, kb) ->
            (* duplicate the list so repeated keys are exercised *)
            let queries = grid_queries kb @ grid_queries kb in
            let point =
              let o = Oracle.of_config Oracle.default_config kb in
              List.map (Oracle.check o) queries
            in
            Alcotest.(check (list bool))
              (name ^ " batched")
              point
              (Oracle.check_all (Oracle.of_config Oracle.default_config kb) queries);
            Alcotest.(check (list bool))
              (name ^ " uncached")
              point
              (Oracle.check_all
                 (Oracle.of_config { Oracle.default_config with Oracle.cache_capacity = 0 } kb)
                 queries))
          (fixtures ()));
    Alcotest.test_case "warm Cq.answers repeat pays 0 tableau calls" `Quick
      (fun () ->
        let t = Para.create clinic_kb in
        let calls () =
          Oracle.tableau_calls (Session.oracle t)
        in
        let qs = queries_for clinic_kb in
        let cold = List.map (Cq.answers t) qs in
        let before = calls () in
        let warm = List.map (Cq.answers t) qs in
        Alcotest.(check int) "no new tableau calls" before (calls ());
        List.iter2 (Alcotest.check answers_t "same answers") cold warm);
    Alcotest.test_case "truth_of_binding short-circuits after f" `Quick
      (fun () ->
        (* dana : ~Surgeon, so the first atom is f and the Doctor atom must
           not be evaluated; with the cache disabled every evaluation pays
           exactly two tableau calls, making the call counts observable *)
        let t = Para.create ~config:{ Oracle.default_config with Oracle.cache_capacity = 0 } clinic_kb in
        let calls () =
          Oracle.tableau_calls (Session.oracle t)
        in
        let q =
          Cq.make ~head:[]
            ~body:
              [ Cq.Concept_atom (Concept.Atom "Surgeon", Cq.Ind "dana");
                Cq.Concept_atom (Concept.Atom "Doctor", Cq.Ind "dana") ]
        in
        let c0 = calls () in
        Alcotest.check tv "value is f" Truth.False (Cq.truth_of_binding t q []);
        Alcotest.(check int) "only the first atom paid" 2 (calls () - c0);
        let c1 = calls () in
        Alcotest.check tv "naive agrees" Truth.False
          (Cq.truth_of_binding_naive t q []);
        Alcotest.(check int) "naive pays both atoms" 4 (calls () - c1));
    Alcotest.test_case "staged enumeration prunes oracle work" `Quick
      (fun () ->
        let q =
          Cq.make ~head:[ "x"; "y" ]
            ~body:
              [ Cq.Concept_atom (Concept.Atom "Surgeon", Cq.Var "x");
                Cq.Role_atom (Role.name "hasPatient", Cq.Var "x", Cq.Var "y")
              ]
        in
        let run f =
          let t = Para.create ~config:{ Oracle.default_config with Oracle.cache_capacity = 0 } clinic_kb in
          let out = f t q in
          (out, Oracle.tableau_calls (Session.oracle t))
        in
        let staged, staged_calls = run Cq.all_bindings in
        let naive, naive_calls = run Cq.all_bindings_naive in
        Alcotest.check bindings_t "same bindings" naive staged;
        Alcotest.(check bool)
          (Printf.sprintf "staged pays fewer tableau calls (%d < %d)"
             staged_calls naive_calls)
          true (staged_calls < naive_calls)) ]

(* ------------------------------------------------------------------ *)
(* Random KBs: small four-valued KBs over a fixed signature keep the
   tableau fast while still producing contradictions, denials and gaps. *)

let gen_atom = Gen.map (fun a -> Concept.Atom a) (Gen.oneofl [ "A"; "B"; "C" ])
let gen_lit = Gen.oneof [ gen_atom; Gen.map (fun c -> Concept.Not c) gen_atom ]

let gen_concept =
  Gen.oneof
    [ gen_lit;
      Gen.map2 (fun a b -> Concept.And (a, b)) gen_lit gen_lit;
      Gen.map2 (fun a b -> Concept.Or (a, b)) gen_lit gen_lit;
      Gen.map (fun c -> Concept.Exists (Role.name "r", c)) gen_lit ]

let gen_ind = Gen.oneofl [ "a"; "b"; "c" ]

let gen_abox_axiom =
  Gen.oneof
    [ Gen.map2 (fun a c -> Axiom.Instance_of (a, c)) gen_ind gen_concept;
      Gen.map2
        (fun a b -> Axiom.Role_assertion (a, Role.name "r", b))
        gen_ind gen_ind ]

let gen_kb4 =
  let open Gen in
  let* n_tbox = int_bound 2 in
  let* tbox =
    list_repeat n_tbox
      (map2
         (fun c d -> Kb4.Concept_inclusion (Kb4.Internal, c, d))
         gen_concept gen_concept)
  in
  let* n_abox = int_range 1 5 in
  let* abox = list_repeat n_abox gen_abox_axiom in
  return (Kb4.make ~tbox ~abox)

let print_kb = Surface.kb4_to_string

let random_tests =
  [ Test.make ~count:60 ~name:"random KBs: retrieve = retrieve_naive"
      ~print:print_kb gen_kb4
      (fun kb ->
        let t = Para.create kb in
        List.for_all
          (fun c ->
            Para.retrieve t (Concept.Atom c)
            = Para.retrieve_naive t (Concept.Atom c))
          (Kb4.signature kb).Axiom.concepts);
    Test.make ~count:40 ~name:"random KBs: Cq paths match naive"
      ~print:print_kb gen_kb4
      (fun kb ->
        let t = Para.create kb in
        List.for_all
          (fun q ->
            Cq.answers t q = Cq.answers_naive t q
            && Cq.all_bindings t q = Cq.all_bindings_naive t q)
          (queries_for kb)) ]

let () =
  Alcotest.run "oracle"
    [ ("guard", guard_tests);
      ("differential", differential_tests);
      ("batching", batching_tests);
      ("random", List.map QCheck_alcotest.to_alcotest random_tests) ]
