(* Hand-rolled binary codecs for the dl4-snap snapshot format.

   The container ships no serialization library and bare [Marshal] is
   ruled out by design (no version gate, no validation, breaks across
   compiler versions), so every persisted type gets an explicit
   writer/reader pair in the versioned-type discipline: constructor tags
   and field orders below are part of the on-disk format — changing any
   of them requires bumping [Store.version], never reinterpreting bytes.

   Primitives: fixed-width little-endian u8/u32/i64, IEEE doubles as
   int64 bits, length-prefixed strings, count-prefixed lists, 0/1-tagged
   options.  Readers bounds-check every access and raise {!Corrupt} with
   a description; [Store] catches it at the section boundary. *)

exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

(* ------------------------------------------------------------------ *)
(* Writer *)

type writer = Buffer.t

let w_u8 b n = Buffer.add_char b (Char.chr (n land 0xff))

let w_u32 b n =
  if n < 0 || n > 0xffff_ffff then corrupt "u32 out of range: %d" n;
  w_u8 b n;
  w_u8 b (n lsr 8);
  w_u8 b (n lsr 16);
  w_u8 b (n lsr 24)

let w_i64 b (n : int64) =
  for k = 0 to 7 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.shift_right_logical n (8 * k)) land 0xff))
  done

let w_int b n = w_i64 b (Int64.of_int n)
let w_float b f = w_i64 b (Int64.bits_of_float f)
let w_bool b v = w_u8 b (if v then 1 else 0)

let w_string b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

let w_list b w_elt l =
  w_u32 b (List.length l);
  List.iter (w_elt b) l

let w_array b w_elt a =
  w_u32 b (Array.length a);
  Array.iter (w_elt b) a

let w_option b w_elt = function
  | None -> w_u8 b 0
  | Some v ->
      w_u8 b 1;
      w_elt b v

let w_pair w_fst w_snd b (x, y) =
  w_fst b x;
  w_snd b y

(* ------------------------------------------------------------------ *)
(* Reader *)

type reader = { buf : string; mutable pos : int; limit : int }

let reader ?(pos = 0) ?limit buf =
  { buf; pos; limit = Option.value limit ~default:(String.length buf) }

let need r n what =
  if r.pos + n > r.limit then
    corrupt "truncated: %s needs %d bytes at offset %d (limit %d)" what n r.pos
      r.limit

let r_u8 r =
  need r 1 "u8";
  let v = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_u32 r =
  need r 4 "u32";
  let b k = Char.code r.buf.[r.pos + k] in
  let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  r.pos <- r.pos + 4;
  v

let r_i64 r =
  need r 8 "i64";
  let v = ref 0L in
  for k = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8)
           (Int64.of_int (Char.code r.buf.[r.pos + k]))
  done;
  r.pos <- r.pos + 8;
  !v

let r_int r = Int64.to_int (r_i64 r)
let r_float r = Int64.float_of_bits (r_i64 r)

let r_bool r =
  match r_u8 r with
  | 0 -> false
  | 1 -> true
  | n -> corrupt "bad bool tag %d" n

let r_string r =
  let n = r_u32 r in
  need r n "string payload";
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let r_list r r_elt =
  let n = r_u32 r in
  (* sanity cap: a count cannot exceed one element per remaining byte —
     rejects wildly corrupt counts before allocating *)
  if n > r.limit - r.pos then corrupt "list count %d exceeds remaining bytes" n;
  List.init n (fun _ -> r_elt r)

let r_array r r_elt = Array.of_list (r_list r r_elt)

let r_option r r_elt =
  match r_u8 r with
  | 0 -> None
  | 1 -> Some (r_elt r)
  | n -> corrupt "bad option tag %d" n

let r_pair r_fst r_snd r =
  let x = r_fst r in
  let y = r_snd r in
  (x, y)

let at_end r = r.pos = r.limit

(* ------------------------------------------------------------------ *)
(* Checksum: Adler-32 (RFC 1950), enough to catch torn or bit-flipped
   sections — the threat model is corruption, not tampering. *)

let adler32 s =
  let a = ref 1 and b = ref 0 in
  String.iter
    (fun c ->
      a := (!a + Char.code c) mod 65521;
      b := (!b + !a) mod 65521)
    s;
  (!b lsl 16) lor !a

(* ------------------------------------------------------------------ *)
(* Syntax-layer codecs *)

let w_value b (v : Datatype.value) =
  match v with
  | Datatype.Int n ->
      w_u8 b 0;
      w_int b n
  | Datatype.Str s ->
      w_u8 b 1;
      w_string b s
  | Datatype.Bool v ->
      w_u8 b 2;
      w_bool b v

let r_value r : Datatype.value =
  match r_u8 r with
  | 0 -> Datatype.Int (r_int r)
  | 1 -> Datatype.Str (r_string r)
  | 2 -> Datatype.Bool (r_bool r)
  | n -> corrupt "bad datatype-value tag %d" n

let rec w_datatype b (d : Datatype.t) =
  match d with
  | Datatype.Top_data -> w_u8 b 0
  | Datatype.Bottom_data -> w_u8 b 1
  | Datatype.Int_type -> w_u8 b 2
  | Datatype.String_type -> w_u8 b 3
  | Datatype.Bool_type -> w_u8 b 4
  | Datatype.Int_range (lo, hi) ->
      w_u8 b 5;
      w_option b w_int lo;
      w_option b w_int hi
  | Datatype.One_of vs ->
      w_u8 b 6;
      w_list b w_value vs
  | Datatype.Complement d ->
      w_u8 b 7;
      w_datatype b d

let rec r_datatype r : Datatype.t =
  match r_u8 r with
  | 0 -> Datatype.Top_data
  | 1 -> Datatype.Bottom_data
  | 2 -> Datatype.Int_type
  | 3 -> Datatype.String_type
  | 4 -> Datatype.Bool_type
  | 5 ->
      let lo = r_option r r_int in
      let hi = r_option r r_int in
      Datatype.Int_range (lo, hi)
  | 6 -> Datatype.One_of (r_list r r_value)
  | 7 -> Datatype.Complement (r_datatype r)
  | n -> corrupt "bad datatype tag %d" n

let w_role b (role : Role.t) =
  match role with
  | Role.Name s ->
      w_u8 b 0;
      w_string b s
  | Role.Inv s ->
      w_u8 b 1;
      w_string b s

let r_role r : Role.t =
  match r_u8 r with
  | 0 -> Role.Name (r_string r)
  | 1 -> Role.Inv (r_string r)
  | n -> corrupt "bad role tag %d" n

let rec w_concept b (c : Concept.t) =
  match c with
  | Concept.Top -> w_u8 b 0
  | Concept.Bottom -> w_u8 b 1
  | Concept.Atom s ->
      w_u8 b 2;
      w_string b s
  | Concept.Not c ->
      w_u8 b 3;
      w_concept b c
  | Concept.And (x, y) ->
      w_u8 b 4;
      w_concept b x;
      w_concept b y
  | Concept.Or (x, y) ->
      w_u8 b 5;
      w_concept b x;
      w_concept b y
  | Concept.One_of os ->
      w_u8 b 6;
      w_list b w_string os
  | Concept.Exists (role, c) ->
      w_u8 b 7;
      w_role b role;
      w_concept b c
  | Concept.Forall (role, c) ->
      w_u8 b 8;
      w_role b role;
      w_concept b c
  | Concept.At_least (n, role) ->
      w_u8 b 9;
      w_int b n;
      w_role b role
  | Concept.At_most (n, role) ->
      w_u8 b 10;
      w_int b n;
      w_role b role
  | Concept.Data_exists (u, d) ->
      w_u8 b 11;
      w_string b u;
      w_datatype b d
  | Concept.Data_forall (u, d) ->
      w_u8 b 12;
      w_string b u;
      w_datatype b d
  | Concept.Data_at_least (n, u) ->
      w_u8 b 13;
      w_int b n;
      w_string b u
  | Concept.Data_at_most (n, u) ->
      w_u8 b 14;
      w_int b n;
      w_string b u

let rec r_concept r : Concept.t =
  match r_u8 r with
  | 0 -> Concept.Top
  | 1 -> Concept.Bottom
  | 2 -> Concept.Atom (r_string r)
  | 3 -> Concept.Not (r_concept r)
  | 4 ->
      let x = r_concept r in
      let y = r_concept r in
      Concept.And (x, y)
  | 5 ->
      let x = r_concept r in
      let y = r_concept r in
      Concept.Or (x, y)
  | 6 -> Concept.One_of (r_list r r_string)
  | 7 ->
      let role = r_role r in
      Concept.Exists (role, r_concept r)
  | 8 ->
      let role = r_role r in
      Concept.Forall (role, r_concept r)
  | 9 ->
      let n = r_int r in
      Concept.At_least (n, r_role r)
  | 10 ->
      let n = r_int r in
      Concept.At_most (n, r_role r)
  | 11 ->
      let u = r_string r in
      Concept.Data_exists (u, r_datatype r)
  | 12 ->
      let u = r_string r in
      Concept.Data_forall (u, r_datatype r)
  | 13 ->
      let n = r_int r in
      Concept.Data_at_least (n, r_string r)
  | 14 ->
      let n = r_int r in
      Concept.Data_at_most (n, r_string r)
  | n -> corrupt "bad concept tag %d" n

(* Classical axioms *)

let w_ctbox b (ax : Axiom.tbox_axiom) =
  match ax with
  | Axiom.Concept_sub (c, d) ->
      w_u8 b 0;
      w_concept b c;
      w_concept b d
  | Axiom.Role_sub (x, y) ->
      w_u8 b 1;
      w_role b x;
      w_role b y
  | Axiom.Data_role_sub (x, y) ->
      w_u8 b 2;
      w_string b x;
      w_string b y
  | Axiom.Transitive x ->
      w_u8 b 3;
      w_string b x

let r_ctbox r : Axiom.tbox_axiom =
  match r_u8 r with
  | 0 ->
      let c = r_concept r in
      let d = r_concept r in
      Axiom.Concept_sub (c, d)
  | 1 ->
      let x = r_role r in
      let y = r_role r in
      Axiom.Role_sub (x, y)
  | 2 ->
      let x = r_string r in
      let y = r_string r in
      Axiom.Data_role_sub (x, y)
  | 3 -> Axiom.Transitive (r_string r)
  | n -> corrupt "bad classical-tbox tag %d" n

let w_abox b (ax : Axiom.abox_axiom) =
  match ax with
  | Axiom.Instance_of (a, c) ->
      w_u8 b 0;
      w_string b a;
      w_concept b c
  | Axiom.Role_assertion (a, role, bb) ->
      w_u8 b 1;
      w_string b a;
      w_role b role;
      w_string b bb
  | Axiom.Data_assertion (a, u, v) ->
      w_u8 b 2;
      w_string b a;
      w_string b u;
      w_value b v
  | Axiom.Same (a, bb) ->
      w_u8 b 3;
      w_string b a;
      w_string b bb
  | Axiom.Different (a, bb) ->
      w_u8 b 4;
      w_string b a;
      w_string b bb

let r_abox r : Axiom.abox_axiom =
  match r_u8 r with
  | 0 ->
      let a = r_string r in
      Axiom.Instance_of (a, r_concept r)
  | 1 ->
      let a = r_string r in
      let role = r_role r in
      let bb = r_string r in
      Axiom.Role_assertion (a, role, bb)
  | 2 ->
      let a = r_string r in
      let u = r_string r in
      Axiom.Data_assertion (a, u, r_value r)
  | 3 ->
      let a = r_string r in
      Axiom.Same (a, r_string r)
  | 4 ->
      let a = r_string r in
      Axiom.Different (a, r_string r)
  | n -> corrupt "bad abox tag %d" n

let w_ckb b (kb : Axiom.kb) =
  w_list b w_ctbox kb.Axiom.tbox;
  w_list b w_abox kb.Axiom.abox

let r_ckb r : Axiom.kb =
  let tbox = r_list r r_ctbox in
  let abox = r_list r r_abox in
  { Axiom.tbox; abox }

(* Four-valued KB *)

let w_inclusion b (k : Kb4.inclusion) =
  w_u8 b
    (match k with Kb4.Material -> 0 | Kb4.Internal -> 1 | Kb4.Strong -> 2)

let r_inclusion r : Kb4.inclusion =
  match r_u8 r with
  | 0 -> Kb4.Material
  | 1 -> Kb4.Internal
  | 2 -> Kb4.Strong
  | n -> corrupt "bad inclusion tag %d" n

let w_tbox4 b (ax : Kb4.tbox_axiom) =
  match ax with
  | Kb4.Concept_inclusion (k, c, d) ->
      w_u8 b 0;
      w_inclusion b k;
      w_concept b c;
      w_concept b d
  | Kb4.Role_inclusion (k, x, y) ->
      w_u8 b 1;
      w_inclusion b k;
      w_role b x;
      w_role b y
  | Kb4.Data_role_inclusion (k, x, y) ->
      w_u8 b 2;
      w_inclusion b k;
      w_string b x;
      w_string b y
  | Kb4.Transitive x ->
      w_u8 b 3;
      w_string b x

let r_tbox4 r : Kb4.tbox_axiom =
  match r_u8 r with
  | 0 ->
      let k = r_inclusion r in
      let c = r_concept r in
      let d = r_concept r in
      Kb4.Concept_inclusion (k, c, d)
  | 1 ->
      let k = r_inclusion r in
      let x = r_role r in
      let y = r_role r in
      Kb4.Role_inclusion (k, x, y)
  | 2 ->
      let k = r_inclusion r in
      let x = r_string r in
      let y = r_string r in
      Kb4.Data_role_inclusion (k, x, y)
  | 3 -> Kb4.Transitive (r_string r)
  | n -> corrupt "bad kb4-tbox tag %d" n

let w_kb4 b (kb : Kb4.t) =
  w_list b w_tbox4 kb.Kb4.tbox;
  w_list b w_abox kb.Kb4.abox

let r_kb4 r : Kb4.t =
  let tbox = r_list r r_tbox4 in
  let abox = r_list r r_abox in
  { Kb4.tbox; abox }

(* ------------------------------------------------------------------ *)
(* Oracle- and session-layer codecs *)

let w_query b (q : Oracle.query) =
  match q with
  | Oracle.Consistent -> w_u8 b 0
  | Oracle.Concept_sat c ->
      w_u8 b 1;
      w_concept b c
  | Oracle.Instance (a, c) ->
      w_u8 b 2;
      w_string b a;
      w_concept b c
  | Oracle.Not_instance (a, c) ->
      w_u8 b 3;
      w_string b a;
      w_concept b c
  | Oracle.Role_pos (a, role, bb) ->
      w_u8 b 4;
      w_string b a;
      w_role b role;
      w_string b bb
  | Oracle.Role_neg (a, role, bb) ->
      w_u8 b 5;
      w_string b a;
      w_role b role;
      w_string b bb

let r_query r : Oracle.query =
  match r_u8 r with
  | 0 -> Oracle.Consistent
  | 1 -> Oracle.Concept_sat (r_concept r)
  | 2 ->
      let a = r_string r in
      Oracle.Instance (a, r_concept r)
  | 3 ->
      let a = r_string r in
      Oracle.Not_instance (a, r_concept r)
  | 4 ->
      let a = r_string r in
      let role = r_role r in
      let bb = r_string r in
      Oracle.Role_pos (a, role, bb)
  | 5 ->
      let a = r_string r in
      let role = r_role r in
      let bb = r_string r in
      Oracle.Role_neg (a, role, bb)
  | n -> corrupt "bad query tag %d" n

let w_prov b (p : Oracle.prov_entry) =
  w_list b w_string p.Oracle.individuals;
  w_list b w_string p.Oracle.concepts

let r_prov r : Oracle.prov_entry =
  let individuals = r_list r r_string in
  let concepts = r_list r r_string in
  { Oracle.individuals; concepts }

(* The work vector of cost records and totals: the seven scalar cells
   in their dl4-snap/4 order, then the non-zero named cells as
   (name, count) pairs — rule firings under their rule names, clash
   causes under "clash.<cause>".  Names, not the live array indices,
   keep a snapshot readable across a reordered rule set: unknown names
   drop on load (a file from a build without clash causes reads with
   them all zero). *)

let w_work b (s : Tableau.stats) =
  w_int b s.Tableau.runs;
  w_int b s.Tableau.nodes_created;
  w_int b s.Tableau.merges;
  w_int b s.Tableau.branches_explored;
  w_int b s.Tableau.backtracks;
  w_int b s.Tableau.clashes;
  w_int b s.Tableau.blocking_events;
  w_list b (w_pair w_string w_int) (Tableau.named_counts s)

let r_work r =
  let s = Tableau.fresh_stats () in
  s.Tableau.runs <- r_int r;
  s.Tableau.nodes_created <- r_int r;
  s.Tableau.merges <- r_int r;
  s.Tableau.branches_explored <- r_int r;
  s.Tableau.backtracks <- r_int r;
  s.Tableau.clashes <- r_int r;
  s.Tableau.blocking_events <- r_int r;
  List.iter (Tableau.add_named s) (r_list r (r_pair r_string r_int));
  s

let w_cost b (c : Oracle.cost) =
  w_string b c.Oracle.c_query;
  w_string b c.Oracle.c_kind;
  w_string b c.Oracle.c_backend;
  w_string b c.Oracle.c_trace; (* new in dl4-snap/3 *)
  w_float b c.Oracle.c_wall_ns;
  w_work b c.Oracle.c_work;
  w_int b c.Oracle.c_hits

let r_cost r : Oracle.cost =
  let c_query = r_string r in
  let c_kind = r_string r in
  let c_backend = r_string r in
  let c_trace = r_string r in
  let c_wall_ns = r_float r in
  let c_work = r_work r in
  let c_hits = r_int r in
  { Oracle.c_query; c_kind; c_backend; c_trace; c_wall_ns; c_work; c_hits }

let w_entry b (e : Oracle.export_entry) =
  w_query b e.Oracle.x_query;
  w_bool b e.Oracle.x_verdict;
  w_option b w_prov e.Oracle.x_prov;
  w_option b w_cost e.Oracle.x_cost

let r_entry r : Oracle.export_entry =
  let x_query = r_query r in
  let x_verdict = r_bool r in
  let x_prov = r_option r r_prov in
  let x_cost = r_option r r_cost in
  { Oracle.x_query; x_verdict; x_prov; x_cost }

let w_cost_totals b (s : Oracle.cost_totals) =
  w_int b s.Oracle.verdicts;
  w_int b s.Oracle.cache_served;
  w_int b s.Oracle.slow;
  w_float b s.Oracle.wall_ns;
  w_work b s.Oracle.work;
  w_list b (w_pair w_string w_int) s.Oracle.backends

let r_cost_totals r : Oracle.cost_totals =
  let verdicts = r_int r in
  let cache_served = r_int r in
  let slow = r_int r in
  let wall_ns = r_float r in
  let work = r_work r in
  let backends = r_list r (r_pair r_string r_int) in
  { Oracle.verdicts; cache_served; slow; wall_ns; work; backends }

let w_classify_stats b (s : Classify.stats) =
  w_int b s.Classify.atoms;
  w_int b s.Classify.naive_tests;
  w_int b s.Classify.tableau_tests;
  w_int b s.Classify.told_hits;
  w_int b s.Classify.dag_hits

let r_classify_stats r : Classify.stats =
  let atoms = r_int r in
  let naive_tests = r_int r in
  let tableau_tests = r_int r in
  let told_hits = r_int r in
  let dag_hits = r_int r in
  { Classify.atoms; naive_tests; tableau_tests; told_hits; dag_hits }

let w_classification b (c : Classify.t) =
  w_list b (w_pair w_string (fun b l -> w_list b w_string l)) c.Classify.supers;
  w_classify_stats b c.Classify.stats

let r_classification r : Classify.t =
  let supers = r_list r (r_pair r_string (fun r -> r_list r r_string)) in
  let stats = r_classify_stats r in
  { Classify.supers; stats }

let w_config b (c : Oracle.config) =
  w_int b c.Oracle.cache_capacity;
  w_int b c.Oracle.max_nodes;
  w_int b c.Oracle.max_branches;
  w_u8 b
    (match c.Oracle.backend with
    | Backend.Auto -> 0
    | Backend.Tableau -> 1
    | Backend.Horn -> 2)

let r_config r : Oracle.config =
  let cache_capacity = r_int r in
  let max_nodes = r_int r in
  let max_branches = r_int r in
  let backend =
    match r_u8 r with
    | 0 -> Backend.Auto
    | 1 -> Backend.Tableau
    | 2 -> Backend.Horn
    | n -> corrupt "bad backend tag %d" n
  in
  { Oracle.cache_capacity; max_nodes; max_branches; backend }

let w_cache_stats b (s : Verdict_cache.stats) =
  w_int b s.Verdict_cache.hits;
  w_int b s.Verdict_cache.misses;
  w_int b s.Verdict_cache.evictions;
  w_int b s.Verdict_cache.size;
  w_int b s.Verdict_cache.capacity

let r_cache_stats r : Verdict_cache.stats =
  let hits = r_int r in
  let misses = r_int r in
  let evictions = r_int r in
  let size = r_int r in
  let capacity = r_int r in
  { Verdict_cache.hits; misses; evictions; size; capacity }
