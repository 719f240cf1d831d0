(* PR 7 backend-layer tests.

   - The grep guard that keeps every module outside lib/engine from
     talking to a reasoning backend directly: routing is the oracle's
     job, so lib/core, lib/serve and lib/store must never mention
     [Backend_tableau], [Horn_backend], [Completion] or [Backend.eval].
   - Fragment detector unit tests: the syntactic Horn/EL check accepts
     exactly the advertised shapes and reports the first offender.
   - Differential tests: the tableau backend, the Horn/EL completion
     backend and the auto router return verdict-identical answers on the
     paper examples, the shipped KB files and random small KBs.
   - Routing: on a Horn-fragment classification workload, --backend auto
     sends at least 90% of the computed verdicts to the completion
     backend. *)

(* the workload generators: [open QCheck2] below shadows their [Gen] *)
module Workload_gen = Gen

open QCheck2

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Guard: backends are an Oracle implementation detail.  The sources are
   attached as test dependencies (see test/dune). *)

let guard_tests =
  [ Alcotest.test_case "only lib/engine talks to backends" `Quick (fun () ->
        let dirs = [ "core"; "serve"; "store" ] in
        let banned =
          [ "Backend_tableau."; "Horn_backend."; "Completion."; "Backend.eval" ]
        in
        let offenders = ref [] in
        List.iter
          (fun d ->
            let dir = Filename.concat ".." (Filename.concat "lib" d) in
            let files =
              Sys.readdir dir |> Array.to_list
              |> List.filter (fun f -> Filename.check_suffix f ".ml")
              |> List.sort String.compare
            in
            Alcotest.(check bool) (d ^ " sources are visible") true (files <> []);
            List.iter
              (fun f ->
                let src = read (Filename.concat dir f) in
                let n = String.length src in
                List.iter
                  (fun pat ->
                    let m = String.length pat in
                    for i = 0 to n - m do
                      if String.sub src i m = pat then
                        offenders := (d ^ "/" ^ f, pat) :: !offenders
                    done)
                  banned)
              files)
          dirs;
        Alcotest.(check (list (pair string string)))
          "direct backend calls outside lib/engine" []
          (List.rev !offenders)) ]

(* ------------------------------------------------------------------ *)
(* Fragment detector. *)

let parse = Surface.parse_kb4_exn
let eligible4 kb = Result.is_ok (Fragment.check_kb4 kb)

let reason4 kb =
  match Fragment.check_kb4 kb with
  | Ok () -> Alcotest.fail "expected an offender"
  | Error (_, reason) -> reason

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let fragment_tests =
  [ Alcotest.test_case "Horn/EL shapes are eligible" `Quick (fun () ->
        List.iter
          (fun src ->
            Alcotest.(check bool) src true (eligible4 (parse src)))
          [ "A < B. a : A.";
            "A & B < C.";
            "some r.A < B.";
            "A < some r.B.";
            "A | B < C.";             (* disjunctive body is Horn *)
            "a : ~A. a : A.";         (* contradictions stay in-fragment *)
            "r(a, b). a = b. a != c." ]);
    Alcotest.test_case "non-Horn shapes are rejected with a reason" `Quick
      (fun () ->
        List.iter
          (fun (src, frag) ->
            let kb = parse src in
            Alcotest.(check bool) (src ^ " ineligible") false (eligible4 kb);
            let r = reason4 kb in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %S mentions %S" src r frag)
              true (contains ~sub:frag r))
          [ ("A < B | C.", "disjunction");
            ("A < only r.B.", "universal");
            ("only r.A < B.", "universal");
            ("A |-> B.", "negation");   (* material ⇒ ¬ on the left in K̄ *)
            ("a : >= 2 r.", "number restriction");
            ("a : A | ~A.", "disjunction") ]);
    Alcotest.test_case "first offending axiom is reported" `Quick (fun () ->
        let kb = parse "A < B. C < D | E. a : >= 2 r." in
        match Fragment.check_kb4 kb with
        | Ok () -> Alcotest.fail "expected an offender"
        | Error (`Tbox ax, _) ->
            Alcotest.(check string)
              "TBox offender comes first" "C < D | E."
              (Format.asprintf "%a" Kb4.pp_tbox_axiom ax)
        | Error (`Abox _, _) ->
            Alcotest.fail "TBox offender should be found before the ABox");
    Alcotest.test_case "classification taxonomies are in-fragment" `Quick
      (fun () ->
        Alcotest.(check bool) "taxonomy eligible" true
          (Fragment.eligible (Workload_gen.taxonomy ~depth:3 ~branching:2))) ]

(* ------------------------------------------------------------------ *)
(* Fixtures and the query vocabulary. *)

let kb_dir = Filename.concat (Filename.concat ".." "examples") "kb"
let parse_file f = Surface.parse_kb4_exn (read (Filename.concat kb_dir f))

let clinic_kb =
  parse
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

(* Every routed verdict kind over the KB's own signature: consistency,
   concept satisfiability, the instance grid, and role entailment both
   ways round. *)
let queries_for kb =
  let s = Kb4.signature kb in
  let sats =
    List.concat_map
      (fun c ->
        [ Oracle.Concept_sat (Concept.Atom c);
          Oracle.Concept_sat (Concept.Not (Concept.Atom c)) ])
      s.Axiom.concepts
  in
  let grid =
    List.concat_map
      (fun a ->
        List.concat_map
          (fun c ->
            [ Oracle.Instance (a, Concept.Atom c);
              Oracle.Not_instance (a, Concept.Atom c) ])
          s.Axiom.concepts)
      s.Axiom.individuals
  in
  let roles =
    match (s.Axiom.roles, s.Axiom.individuals) with
    | r :: _, (a :: _ as inds) ->
        let b = List.nth_opt inds 1 |> Option.value ~default:a in
        [ Oracle.Role_pos (a, Role.name r, b);
          Oracle.Role_pos (b, Role.name r, a);
          Oracle.Role_neg (a, Role.name r, b) ]
    | _ -> []
  in
  (Oracle.Consistent :: sats) @ grid @ roles

let verdicts backend kb qs =
  Oracle.check_all (Oracle.of_config { Oracle.default_config with Oracle.backend = backend } kb) qs

(* ------------------------------------------------------------------ *)
(* Differential: tableau vs auto everywhere, strict horn in-fragment. *)

let differential_tests =
  List.map
    (fun (name, kb) ->
      Alcotest.test_case (name ^ ": backends agree on every verdict") `Quick
        (fun () ->
          let qs = queries_for kb in
          let tab = verdicts Backend.Tableau kb qs in
          Alcotest.(check (list bool))
            "auto = tableau" tab
            (verdicts Backend.Auto kb qs);
          if eligible4 kb then
            Alcotest.(check (list bool))
              "horn = tableau" tab
              (verdicts Backend.Horn kb qs)))
    (fixtures ())

(* ------------------------------------------------------------------ *)
(* Routing.  A pure-taxonomy classification is squarely in the Horn
   fragment, so auto must send ≥ 90% of the computed verdicts to the
   completion backend: on a depth-3 taxonomy, and on bench S10's depth-4
   workload, where the three backends must also agree and the pinned
   tableau's verdict count stays within 5% of its baseline. *)

let routing_tests =
  [ Alcotest.test_case "auto routes >= 90% of a Horn classification to horn"
      `Quick (fun () ->
        let kb =
          Kb4.of_classical ~inclusion:Kb4.Internal
            (Workload_gen.taxonomy ~depth:3 ~branching:3)
        in
        let s =
          Session.create
            ~config:{ Session.default_config with backend = Backend.Auto }
            kb
        in
        ignore (Session.classify s);
        let routes = (Session.cost_totals s).Oracle.backends in
        let count b = List.assoc_opt b routes |> Option.value ~default:0 in
        let horn = count "horn" and tableau = count "tableau" in
        let total = horn + tableau in
        Alcotest.(check bool) "verdicts were computed" true (total > 0);
        Alcotest.(check bool)
          (Printf.sprintf "horn fraction %d/%d >= 0.9" horn total)
          true
          (float_of_int horn >= 0.9 *. float_of_int total);
        (* bench S10's workload: a depth-4 taxonomy plus four leaf
           assertions, classified and asked its whole atomic grid under
           each backend *)
        let kb =
          let base =
            Kb4.of_classical ~inclusion:Kb4.Internal
              (Workload_gen.taxonomy ~depth:4 ~branching:3)
          in
          { base with
            Kb4.abox =
              base.Kb4.abox
              @ [ Axiom.Instance_of ("i0", Concept.Atom "C4_0");
                  Axiom.Instance_of ("i1", Concept.Atom "C4_40");
                  Axiom.Instance_of ("i2", Concept.Atom "C4_80");
                  Axiom.Instance_of ("i2", Concept.Not (Concept.Atom "C0_0"))
                ] }
        in
        let signature = Kb4.signature kb in
        let grid =
          List.concat_map
            (fun a ->
              List.map (fun c -> (a, Concept.Atom c)) signature.Axiom.concepts)
            signature.Axiom.individuals
        in
        let run backend =
          let s =
            Session.create ~config:{ Session.default_config with backend } kb
          in
          let tax = Session.classify s in
          let truths =
            List.map (fun (a, c) -> Para.instance_truth s a c) grid
          in
          ((tax, truths), (Session.cost_totals s).Oracle.backends)
        in
        let tab_out, tab_routes = run Backend.Tableau in
        let horn_out, _ = run Backend.Horn in
        let auto_out, auto_routes = run Backend.Auto in
        Alcotest.(check bool) "horn answers = tableau answers" true
          (horn_out = tab_out);
        Alcotest.(check bool) "auto answers = tableau answers" true
          (auto_out = tab_out);
        let count routes b =
          List.assoc_opt b routes |> Option.value ~default:0
        in
        let horn = count auto_routes "horn" in
        let total = List.fold_left (fun n (_, k) -> n + k) 0 auto_routes in
        Alcotest.(check bool)
          (Printf.sprintf "S10 horn fraction %d/%d >= 0.9" horn total)
          true
          (total > 0 && float_of_int horn >= 0.9 *. float_of_int total);
        let verdicts = count tab_routes "tableau" in
        Alcotest.(check bool)
          (Printf.sprintf "%d tableau verdicts <= 1698 * 1.05" verdicts)
          true
          (float_of_int verdicts <= 1698. *. 1.05));
    Alcotest.test_case "tableau pin computes every verdict on the tableau"
      `Quick (fun () ->
        let kb = clinic_kb in
        let o = Oracle.of_config { Oracle.default_config with Oracle.backend = Backend.Tableau } kb in
        ignore (Oracle.check_all o (queries_for kb));
        Alcotest.(check (list string))
          "routes" [ "tableau" ]
          (List.map fst (Oracle.cost_totals o).Oracle.backends));
    Alcotest.test_case "strict horn refuses an out-of-fragment KB" `Quick
      (fun () ->
        let kb = parse "A < B | C. a : A." in
        match Oracle.of_config { Oracle.default_config with Oracle.backend = Backend.Horn } kb with
        | exception Backend.Unsupported _ -> ()
        | _ -> Alcotest.fail "expected Backend.Unsupported") ]

(* ------------------------------------------------------------------ *)
(* Random KBs.  [gen_kb4] roams the full concept language (auto must
   agree with the tableau even when it cannot route); [gen_horn_kb4]
   stays inside the fragment so the strict horn backend is exercised on
   contradictions, gaps, role chains and equalities. *)

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

(* Horn fragment: EL heads, Horn bodies, literal assertions. *)
let gen_el =
  Gen.oneof
    [ gen_atom;
      Gen.map2 (fun a b -> Concept.And (a, b)) gen_atom gen_atom;
      Gen.map (fun c -> Concept.Exists (Role.name "r", c)) gen_atom ]

let gen_body =
  Gen.oneof
    [ gen_el; Gen.map2 (fun a b -> Concept.Or (a, b)) gen_el gen_el ]

(* An occasional [A ⊑ ⊥] makes K̄ classically inconsistent once some
   individual is an [A]; [Same] merges completion contexts. *)
let gen_horn_tbox =
  Gen.frequency
    [ ( 6,
        Gen.map2
          (fun c d -> Kb4.Concept_inclusion (Kb4.Internal, c, d))
          gen_body gen_el );
      ( 1,
        Gen.map
          (fun a -> Kb4.Concept_inclusion (Kb4.Internal, a, Concept.Bottom))
          gen_atom ) ]

let gen_horn_abox =
  Gen.frequency
    [ (4, Gen.map2 (fun a c -> Axiom.Instance_of (a, c)) gen_ind gen_lit);
      ( 4,
        Gen.map2
          (fun a b -> Axiom.Role_assertion (a, Role.name "r", b))
          gen_ind gen_ind );
      (1, Gen.map2 (fun a b -> Axiom.Same (a, b)) gen_ind gen_ind) ]

let gen_horn_kb4 =
  let open Gen in
  let* n_tbox = int_bound 3 in
  let* tbox = list_repeat n_tbox gen_horn_tbox in
  let* n_abox = int_range 1 5 in
  let* abox = list_repeat n_abox gen_horn_abox in
  return (Kb4.make ~tbox ~abox)

let print_kb = Surface.kb4_to_string

(* ------------------------------------------------------------------ *)
(* Provenance differential.  A verdict's recorded provenance drives
   cache invalidation, the audit report, the slow log and snapshots, so
   it must not depend on what the backend instance answered before: on
   one Horn-pinned oracle checking a query list in order, each query's
   [Oracle.provenance] equals what a fresh oracle records for that query
   alone.  Complex instance concepts (which add definitional atoms at
   query time) and satisfiability probes (which add contexts) come
   first, ahead of the atomic grid, the role queries and [Consistent]. *)

let horn_oracle kb =
  Oracle.of_config
    { Oracle.default_config with Oracle.backend = Backend.Horn }
    kb

let prov_queries kb =
  let s = Kb4.signature kb in
  let inds = s.Axiom.individuals in
  let atom c = Concept.Atom c and r = Role.name "r" in
  let complex =
    List.concat_map
      (fun a ->
        [ Oracle.Instance (a, Concept.And (atom "A", Concept.Exists (r, atom "B")));
          Oracle.Instance (a, Concept.Exists (r, atom "A")) ])
      inds
  in
  (* [Concept_sat] takes a classical concept over K̄'s vocabulary *)
  let pos c = Concept.Atom (Mangle.pos_atom c)
  and neg c = Concept.Atom (Mangle.neg_atom c)
  and rp = Role.name (Mangle.plus_role "r") in
  let sats =
    [ Oracle.Concept_sat (pos "A");
      Oracle.Concept_sat (Concept.And (pos "A", neg "B"));
      Oracle.Concept_sat (Concept.Exists (rp, pos "C"));
      Oracle.Concept_sat (Concept.And (pos "B", Concept.Not (pos "C")));
      Oracle.Concept_sat (Concept.Or (pos "A", Concept.Exists (rp, neg "A"))) ]
  in
  let grid =
    List.concat_map
      (fun a ->
        List.concat_map
          (fun c -> [ Oracle.Instance (a, atom c); Oracle.Not_instance (a, atom c) ])
          s.Axiom.concepts)
      inds
  in
  let roles =
    List.concat_map
      (fun a ->
        List.concat_map
          (fun b -> [ Oracle.Role_pos (a, r, b); Oracle.Role_neg (a, r, b) ])
          inds)
      inds
  in
  complex @ sats @ grid @ roles @ [ Oracle.Consistent ]

let provenance_alone kb q =
  let o = horn_oracle kb in
  ignore (Oracle.check o q : bool);
  Oracle.provenance o q

let provenance_in_order kb =
  let qs = prov_queries kb in
  let o = horn_oracle kb in
  List.for_all
    (fun q ->
      ignore (Oracle.check o q : bool);
      Oracle.provenance o q = provenance_alone kb q)
    qs

let prov_of o q =
  ignore (Oracle.check o q : bool);
  match Oracle.provenance o q with
  | Some e -> e
  | None -> Alcotest.fail "computed verdict has no provenance"

(* A delta that extends a region: after [r(b, c)] and [c : C] arrive,
   the recomputed [Instance (a, A)] must record the new individual and
   the atom that derived it. *)
let delta_region_test =
  Alcotest.test_case "delta-extended region is recorded" `Quick (fun () ->
      let kb = parse "some r.C < D.\nsome r.D < A.\nr(a, b).\n" in
      let o = horn_oracle kb in
      let q = Oracle.Instance ("a", Concept.Atom "A") in
      Alcotest.(check bool) "before the delta" false (Oracle.check o q);
      let d =
        match Delta.parse "+ r(b, c).\n+ c : C.\n" with
        | Ok d -> d
        | Error e -> Alcotest.fail e
      in
      ignore (Oracle.apply o d : Oracle.apply_stats);
      Alcotest.(check bool) "evicted by the delta" true
        (Oracle.provenance o q = None);
      Alcotest.(check bool) "after the delta" true (Oracle.check o q);
      let e = prov_of o q in
      Alcotest.(check bool) "records c" true (List.mem "c" e.Oracle.individuals);
      Alcotest.(check bool) "records C" true (List.mem "C" e.Oracle.concepts))

(* Regions the in-order property cannot tell apart, pinned directly: a
   role verdict records both endpoints' regions, even when the second is
   unreachable from the first, and on an inconsistent K̄ every verdict
   records the named set, the clash included. *)
let region_tests =
  [ Alcotest.test_case "role verdict records both endpoint regions" `Quick
      (fun () ->
        let o = horn_oracle (parse "r(a, b).\nc : C.\n") in
        let e = prov_of o (Oracle.Role_pos ("a", Role.name "r", "c")) in
        Alcotest.(check bool) "records C" true (List.mem "C" e.Oracle.concepts));
    Alcotest.test_case "inconsistent KB records the named set" `Quick
      (fun () ->
        let o = horn_oracle (parse "A < Bottom.\na : A.\nb : B.\n") in
        let e = prov_of o (Oracle.Instance ("b", Concept.Atom "C")) in
        Alcotest.(check bool) "records a" true (List.mem "a" e.Oracle.individuals);
        Alcotest.(check bool) "records A" true (List.mem "A" e.Oracle.concepts)) ]

let random_tests =
  [ Test.make ~count:60 ~name:"random KBs: auto = tableau" ~print:print_kb
      gen_kb4
      (fun kb ->
        let qs = queries_for kb in
        verdicts Backend.Auto kb qs = verdicts Backend.Tableau kb qs);
    Test.make ~count:60 ~name:"random Horn KBs: horn = tableau"
      ~print:print_kb gen_horn_kb4
      (fun kb ->
        let qs = queries_for kb in
        eligible4 kb
        && verdicts Backend.Horn kb qs = verdicts Backend.Tableau kb qs);
    Test.make ~count:60
      ~name:"random Horn KBs: in-order provenance = first-walk provenance"
      ~print:print_kb gen_horn_kb4 provenance_in_order ]

let () =
  Alcotest.run "backend"
    [ ("guard", guard_tests);
      ("fragment", fragment_tests);
      ("differential", differential_tests);
      ("routing", routing_tests);
      ("provenance", delta_region_test :: region_tests);
      ("random", List.map QCheck_alcotest.to_alcotest random_tests) ]
