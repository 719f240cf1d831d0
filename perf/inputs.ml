(* Seeded generators for the benchmark's inputs: KB texts in the dl4
   surface syntax, CQ texts and serve request lines.  Every input is a
   pure function of (seed, index); the program under test sees only the
   generated text. *)

let bprintf = Printf.bprintf

(* ------------------------------------------------------------------ *)
(* Horn/EL KBs (audit-horn, serve-rw)

   A 21-concept taxonomy (C0; C1..C4 under it; C5..C20 four under each
   of C1..C4), existential axioms on both sides of internal inclusions,
   one role inclusion, told memberships and injected A(a), ~A(a) pairs.
   Internal inclusions, positive existentials and negated assertions all
   transform into the Horn/EL fragment, so the auto backend routes every
   verdict to the completion engine. *)

let n_concepts = 21
let n_horn_roles = 4

let taxonomy b =
  for i = 1 to n_concepts - 1 do
    bprintf b "C%d < C%d.\n" i (if i <= 4 then 0 else 1 + ((i - 5) / 4))
  done

let existentials rng b n =
  for k = 0 to n - 1 do
    let a = Prng.int rng n_concepts
    and c = Prng.int rng n_concepts
    and r = Prng.int rng n_horn_roles in
    if k mod 2 = 0 then bprintf b "C%d < some r%d.C%d.\n" a r c
    else bprintf b "some r%d.C%d < C%d.\n" r c a
  done

(* told memberships favour the leaves, so most facts are derived *)
let membership rng = if Prng.chance rng 0.7 then 5 + Prng.int rng 16 else Prng.int rng n_concepts

let contradictions rng b ~individuals ~rate =
  let n = int_of_float (Float.round (rate *. float_of_int individuals)) in
  for _ = 1 to n do
    let a = Prng.int rng individuals and c = Prng.int rng n_concepts in
    bprintf b "i%d : C%d.\ni%d : ~C%d.\n" a c a c
  done

(* The TBoxes are a fixed family indexed by op — the schema — and the
   seed draws the data: memberships, contradictions and queries.  Most
   of an op's cost follows its TBox, so this keeps the op-cost mix, and
   with it the medians and tails, alike across seeds. *)
let schema i = Prng.derive 0x7b0c i

(* audit-horn: 64 individuals *)
let horn_kb ~seed i =
  let rng = Prng.derive seed i in
  let b = Buffer.create 4096 in
  let individuals = 64 in
  taxonomy b;
  existentials (schema i) b 30;
  bprintf b "role r1 < r0.\n";
  for a = 0 to individuals - 1 do
    bprintf b "i%d : C%d.\n" a (membership rng)
  done;
  (* the role graph is schema too: its components set how far the
     existential axioms propagate *)
  let t = schema (i + 0x10000) in
  for _ = 1 to individuals do
    bprintf b "r%d(i%d, i%d).\n" (Prng.int t n_horn_roles)
      (Prng.int t individuals) (Prng.int t individuals)
  done;
  contradictions rng b ~individuals ~rate:0.05;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Non-Horn KBs and CQs (cq-tableau)

   10-12 individuals over 12 concepts and 3 roles; the TBox mixes
   internal and material inclusions, disjunction, universal and number
   restrictions and negation, so the auto backend finds K̄ outside the
   Horn fragment and the tableau decides every verdict. *)

let tableau_kb ~seed i =
  let rng = Prng.derive seed i in
  let b = Buffer.create 2048 in
  (* sizes and CQ shapes cycle with the op index, so every seed gets the
     same mix *)
  let n = 10 + (i / 5 mod 3) in
  let t = schema i in
  let c () = Prng.int t 12 and r () = Prng.int t 3 in
  for _ = 1 to 3 do bprintf b "D%d < D%d.\n" (c ()) (c ()) done;
  (* a material inclusion is a disjunction on every node: with an
     existential on its right, or chained with a second one, a rare ABox
     turns one op into seconds of backtracking *)
  bprintf b "D%d |-> D%d.\n" (c ()) (c ());
  bprintf b "D%d < D%d | D%d.\n" (c ()) (c ()) (c ());
  bprintf b "D%d < only s%d.D%d.\n" (c ()) (r ()) (c ());
  bprintf b "D%d < >= 2 s%d.\n" (c ()) (r ());
  bprintf b "D%d < ~D%d.\n" (c ()) (c ());
  bprintf b "D%d < some s%d.D%d.\n" (c ()) (r ()) (c ());
  let c () = Prng.int rng 12 and r () = Prng.int rng 3 in
  (* memberships concentrate on D0..D5, so CQ atoms over them bind *)
  for a = 0 to n - 1 do
    bprintf b "j%d : D%d.\nj%d : D%d.\n" a (Prng.int rng 6) a (Prng.int rng 6)
  done;
  for _ = 1 to n do
    bprintf b "s%d(j%d, j%d).\n" (r ()) (Prng.int rng n) (Prng.int rng n)
  done;
  for _ = 1 to 2 do bprintf b "j%d : ~D%d.\n" (Prng.int rng n) (c ()) done;
  let a = Prng.int rng n and d = c () in
  bprintf b "j%d : D%d.\nj%d : ~D%d.\n" a d a d;
  (Buffer.contents b, n)

(* 1-3 atoms over one answer variable, role atoms anchored on a named
   individual: each CQ pays a few dozen verdicts, so op costs stay
   within a narrow band and a run's median, tail and throughput do not
   hinge on a handful of cross-product joins *)
let cq_text ~seed i ~individuals =
  let rng = Prng.derive (seed lxor 0x5bd1e995) i in
  let c () = Prng.int rng 6 and r () = Prng.int rng 3 in
  let j () = Prng.int rng individuals in
  match i mod 5 with
  | 0 -> Printf.sprintf "?x <- D%d(?x)" (c ())
  | 1 -> Printf.sprintf "?x <- D%d(?x), D%d(?x)" (c ()) (c ())
  | 2 -> Printf.sprintf "?x <- s%d(?x, j%d), D%d(?x)" (r ()) (j ()) (c ())
  | 3 ->
      Printf.sprintf "?x <- D%d(?x), s%d(?x, j%d), D%d(?x)" (c ()) (r ()) (j ())
        (c ())
  | _ ->
      Printf.sprintf "?x <- s%d(j%d, ?x), D%d(?x), D%d(?x)" (r ()) (j ()) (c ())
        (c ())

(* ------------------------------------------------------------------ *)
(* serve-rw: one Horn KB of small role-connected groups, and a request
   trace over it *)

let group_size = 4
let serve_groups = 75
let serve_individuals = group_size * serve_groups

type serve_kb = {
  text : string;
  told : (int * int) list;  (** told positive memberships (individual, concept) *)
  edges : (int * int * int) list;  (** told role edges (a, role, b) *)
}

(* One KB for every seed, drawn from the schema stream; the seed draws
   the trace over it.  A KB per seed moved the cost of every request
   class — hit fraction, posting-list lengths, delta footprints — and
   with them every end-to-end figure. *)
let serve_kb () =
  let rng = schema 0 in
  let b = Buffer.create 32768 in
  taxonomy b;
  existentials rng b 30;
  bprintf b "role r1 < r0.\n";
  let told = ref [] and edges = ref [] in
  for a = 0 to serve_individuals - 1 do
    let c = membership rng in
    told := (a, c) :: !told;
    bprintf b "i%d : C%d.\n" a c
  done;
  (* each group is a chain, so a write's connected component is its
     group and never the whole KB *)
  for g = 0 to serve_groups - 1 do
    for j = 0 to group_size - 2 do
      let a = (g * group_size) + j and r = Prng.int rng n_horn_roles in
      edges := (a, r, a + 1) :: !edges;
      bprintf b "r%d(i%d, i%d).\n" r a (a + 1)
    done
  done;
  contradictions rng b ~individuals:serve_individuals ~rate:0.05;
  { text = Buffer.contents b; told = !told; edges = List.rev !edges }

type kind = Query | Cq | Update | Metrics

let kind_name = function
  | Query -> "query"
  | Cq -> "cq"
  | Update -> "update"
  | Metrics -> "metrics"

(* what a read asks, so its answer can be recomputed independently *)
type target = Pair of string * string | Ground of string | Nothing

type request = { kind : kind; line : string; target : target }

let query a c =
  let a = Printf.sprintf "i%d" a and c = Printf.sprintf "C%d" c in
  { kind = Query;
    line = Printf.sprintf {|{"op":"query","individual":"%s","concept":"%s"}|} a c;
    target = Pair (a, c) }

let ground_cq src =
  { kind = Cq;
    line = Printf.sprintf {|{"op":"query","cq":"%s"}|} src;
    target = Ground src }

let update script =
  { kind = Update;
    line = Printf.sprintf {|{"op":"update","script":"%s"}|} script;
    target = Nothing }

let metrics = { kind = Metrics; line = {|{"op":"metrics"}|}; target = Nothing }

(* the seeded ABox add each cold op applies after its timed region:
   the `dl4 update` step on the session the op just built *)
let cold_update ~seed i ~ind ~con ~individuals ~concepts =
  let rng = Prng.derive (seed lxor 0x27d4eb2f) i in
  Printf.sprintf "+ %s%d : %s%d." ind (Prng.int rng individuals) con
    (Prng.int rng concepts)

(* [warmup] reads (the snapshot is taken after them, so the KB text
   stays the snapshot's KB) followed by [measured] mixed requests:
   ~96% Zipf-skewed instance queries, ~3% ground CQs anchored on one
   individual, ~1% metrics scrapes and ~1% updates.  Updates are ABox
   add/retract pairs, plus two Horn TBox additions at fixed points of the
   trace, drawn from the schema stream: an absorbable inclusion at 40%
   and a non-absorbable GCI — a full flush — at 90%.  Fixing them keeps
   their large effect the same on every seed.  Deltas free few enough
   cache slots that misses refill them faster, so the cache stays full
   and misses evict. *)
let serve_trace ~seed (kb : serve_kb) ~warmup ~measured =
  let rng = Prng.derive seed 1 in
  let pairs =
    Prng.shuffle rng
      (Array.init (serve_individuals * n_concepts) (fun k ->
           (k / n_concepts, k mod n_concepts)))
  in
  let pair_cdf = Prng.zipf_table ~n:(Array.length pairs) ~s:1.0 in
  let anchors = Prng.shuffle rng (Array.init serve_individuals Fun.id) in
  let anchor_cdf = Prng.zipf_table ~n:serve_individuals ~s:1.0 in
  let out_edges = Array.make serve_individuals [] in
  List.iter (fun (a, r, b) -> out_edges.(a) <- (r, b) :: out_edges.(a)) kb.edges;
  let told = Hashtbl.create 512 in
  List.iter (fun p -> Hashtbl.replace told p ()) kb.told;
  let query () =
    let a, c = pairs.(Prng.zipf rng pair_cdf) in
    query a c
  in
  let cq () =
    let a = anchors.(Prng.zipf rng anchor_cdf) in
    let c () = Prng.int rng n_concepts in
    ground_cq
      (match out_edges.(a) with
      | (r, b) :: _ when Prng.chance rng 0.6 ->
          Printf.sprintf "C%d(i%d), r%d(i%d, i%d), C%d(i%d)" (c ()) a r a b
            (c ()) b
      | _ -> Printf.sprintf "C%d(i%d), C%d(i%d)" (c ()) a (c ()) a)
  in
  let read () =
    let u = Prng.float rng in
    if u < 0.03 then cq () else if u < 0.04 then metrics else query ()
  in
  (* added memberships stay fresh (never told, never open twice), so a
     retraction restores the KB's told assertion list exactly *)
  let open_adds = Queue.create () in
  let write () =
    let script =
      if Queue.length open_adds >= 4
         || (not (Queue.is_empty open_adds)) && Prng.chance rng 0.5
      then
        let a, c, neg = Queue.pop open_adds in
        Printf.sprintf "- i%d : %sC%d." a (if neg then "~" else "") c
      else begin
        (* a quarter of the adds hit a group member — evicting its
           component, which later reads re-pay — and the rest name a new
           individual, a component of its own *)
        let rec fresh () =
          let a =
            if Prng.chance rng 0.25 then Prng.int rng serve_individuals
            else serve_individuals + Prng.int rng serve_individuals
          in
          let c = Prng.int rng n_concepts in
          if Hashtbl.mem told (a, c) then fresh () else (a, c)
        in
        let a, c = fresh () in
        Hashtbl.replace told (a, c) ();
        let neg = Prng.chance rng 0.2 in
        Queue.push (a, c, neg) open_adds;
        Printf.sprintf "+ i%d : %sC%d." a (if neg then "~" else "") c
      end
    in
    update script
  in
  let tbox =
    let t = schema 1 in
    let leaf () = 5 + Prng.int t 16 in
    [ (measured * 2 / 5, Printf.sprintf "+ C%d < C%d." (leaf ()) (leaf ()));
      ( measured * 9 / 10,
        Printf.sprintf "+ some r%d.C%d < C%d." (Prng.int t n_horn_roles) (leaf ())
          (leaf ()) ) ]
  in
  let warm = Array.init warmup (fun _ -> query ()) in
  let trace =
    Array.init measured (fun k ->
        match List.assoc_opt k tbox with
        | Some axiom -> update axiom
        | None -> if Prng.chance rng 0.01 then write () else read ())
  in
  (warm, trace)
