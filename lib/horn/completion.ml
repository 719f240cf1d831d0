(* Worklist saturation over interned atoms and role-labelled edges.
   Everything is monotone: S-set memberships and edges are only ever
   added, so a simple queue with membership-checked insertion terminates
   at the least fixed point.  Derived memberships are exact in the
   canonical model (fresh definitional atoms are derived only by their
   defining rules), which is what makes the membership tests below
   complete and not just sound. *)

type ckind =
  | Ind of string  (* named individual (union-find representative) *)
  | Root  (* the anonymous ⊤ individual: fresh-individual semantics,
             and the witness that ⊤ ⊑ ⊥ makes even an ABox-free KB
             inconsistent (interpretation domains are non-empty) *)
  | Canon  (* canonical successor context of an existential filler *)
  | Probe  (* satisfiability-query context *)

type ctx = {
  c_id : int;
  c_kind : ckind;
  c_s : (int, unit) Hashtbl.t;  (* derived atom memberships *)
  c_out : (int, (int, unit) Hashtbl.t) Hashtbl.t;  (* role -> target ctxs *)
  c_in : (int, (int, unit) Hashtbl.t) Hashtbl.t;  (* role -> source ctxs *)
}

type rule = { body : int array; head : int }

type work = W_atom of int * int | W_edge of int * int * int

type t = {
  max_nodes : int;
  (* interning *)
  atom_ids : (string, int) Hashtbl.t;
  prov_names : (int, string) Hashtbl.t;
      (* atom -> its [Tableau.prov_atom_name], for atoms that have one *)
  mutable n_atoms : int;
  role_ids : (string, int) Hashtbl.t;
  mutable n_roles : int;
  top : int;
  bot : int;
  (* told role axioms *)
  role_subs : (int, int list ref) Hashtbl.t;  (* sub -> told supers *)
  supers_memo : (int, int array) Hashtbl.t;  (* reflexive-transitive closure *)
  trans : (int, unit) Hashtbl.t;
  (* rule indexes *)
  conj_by_atom : (int, rule list ref) Hashtbl.t;
  ex_rhs : (int, (int * int) list ref) Hashtbl.t;  (* atom -> (role, filler) *)
  ex_lhs : (int * int, int list ref) Hashtbl.t;  (* (role, filler) -> heads *)
  ex_lhs_roles : (int, unit) Hashtbl.t;
  (* contexts *)
  ctxs : (int, ctx) Hashtbl.t;
  mutable n_ctxs : int;
  ind_ctx : (string, int) Hashtbl.t;  (* representative -> ctx id *)
  canon_ctx : (int, int) Hashtbl.t;  (* filler atom -> ctx id *)
  probe_memo : (Concept.t, int) Hashtbl.t;  (* canon branch concept -> ctx *)
  mutable root : int;
  occ : (int, int list ref) Hashtbl.t;  (* atom -> ctxs containing it *)
  (* individuals *)
  uf : (string, string) Hashtbl.t;
  (* definitional-extension memos, keyed by Concept.canon *)
  below_memo : (Concept.t, int) Hashtbl.t;
  above_memo : (Concept.t, int) Hashtbl.t;
  mutable fresh_count : int;
  work : work Queue.t;
  mutable inconsistent : bool;
  stats : Tableau.stats;
  (* provenance regions (see [harvest]) *)
  mutable epoch : int;
  regions : (int, int * Tableau.prov) Hashtbl.t;  (* key -> epoch, region *)
}

let stats t = t.stats

(* ---- interning ---- *)

let atom t name =
  match Hashtbl.find_opt t.atom_ids name with
  | Some i -> i
  | None ->
      let i = t.n_atoms in
      t.n_atoms <- i + 1;
      Hashtbl.replace t.atom_ids name i;
      Option.iter (Hashtbl.replace t.prov_names i) (Tableau.prov_atom_name name);
      i

(* Fresh definitional atoms carry ':' — unreachable from surface
   identifiers, and without a [Tableau.prov_atom_name]. *)
let fresh_atom t =
  let n = t.fresh_count in
  t.fresh_count <- n + 1;
  atom t ("horn:" ^ string_of_int n)

let role t name =
  match Hashtbl.find_opt t.role_ids name with
  | Some i -> i
  | None ->
      let i = t.n_roles in
      t.n_roles <- i + 1;
      Hashtbl.replace t.role_ids name i;
      i

(* Reflexive-transitive super-role closure over the told hierarchy.
   [role_subs] is fixed after [create], so the closure memoizes; roles
   first seen at query time have no told supers and close to {r}. *)
let supers t r =
  match Hashtbl.find_opt t.supers_memo r with
  | Some a -> a
  | None ->
      let seen = Hashtbl.create 8 in
      let rec go r =
        if not (Hashtbl.mem seen r) then begin
          Hashtbl.replace seen r ();
          match Hashtbl.find_opt t.role_subs r with
          | None -> ()
          | Some ups -> List.iter go !ups
        end
      in
      go r;
      let a = Array.of_seq (Hashtbl.to_seq_keys seen) in
      Hashtbl.replace t.supers_memo r a;
      a

(* ---- individuals (union-find over [Same]) ---- *)

let rec find t x =
  match Hashtbl.find_opt t.uf x with
  | None ->
      Hashtbl.replace t.uf x x;
      x
  | Some p when String.equal p x -> x
  | Some p ->
      let r = find t p in
      Hashtbl.replace t.uf x r;
      r

let union t a b =
  let ra = find t a and rb = find t b in
  if not (String.equal ra rb) then begin
    Hashtbl.replace t.uf ra rb;
    t.stats.Tableau.merges <- t.stats.Tableau.merges + 1
  end

(* ---- contexts and the saturation core ---- *)

let ctx t id = Hashtbl.find t.ctxs id
let keys tbl = Hashtbl.fold (fun k () acc -> k :: acc) tbl []

let slot tbl k =
  match Hashtbl.find_opt tbl k with
  | Some v -> v
  | None ->
      let v = ref [] in
      Hashtbl.replace tbl k v;
      v

let edge_set tbl r =
  match Hashtbl.find_opt tbl r with
  | Some s -> s
  | None ->
      let s = Hashtbl.create 4 in
      Hashtbl.replace tbl r s;
      s

(* [add_atom], [add_edge] and [new_ctx] bump [epoch] on every change a
   provenance region can see: a context, an edge, or a membership of an
   atom with a provenance name. *)
let add_atom t x a =
  let c = ctx t x in
  if not (Hashtbl.mem c.c_s a) then begin
    Hashtbl.replace c.c_s a ();
    if Hashtbl.mem t.prov_names a then t.epoch <- t.epoch + 1;
    let o = slot t.occ a in
    o := x :: !o;
    if a = t.bot then begin
      t.stats.Tableau.clashes <- t.stats.Tableau.clashes + 1;
      match c.c_kind with
      | Ind _ | Root -> t.inconsistent <- true
      | Canon | Probe -> ()
    end;
    Queue.push (W_atom (x, a)) t.work
  end

(* Materialize an edge under every super-role of its label; each
   materialized label gets its own work item (rule firing, ⊥-prop and
   transitive composition are per-label). *)
let add_edge t x r0 y =
  Array.iter
    (fun s ->
      let outs = edge_set (ctx t x).c_out s in
      if not (Hashtbl.mem outs y) then begin
        Hashtbl.replace outs y ();
        t.epoch <- t.epoch + 1;
        Hashtbl.replace (edge_set (ctx t y).c_in s) x ();
        Queue.push (W_edge (x, s, y)) t.work
      end)
    (supers t r0)

let new_ctx t kind =
  if t.n_ctxs >= t.max_nodes then
    raise
      (Tableau.Resource_limit
         (Printf.sprintf "horn: completion context limit (%d) exceeded"
            t.max_nodes));
  let id = t.n_ctxs in
  t.n_ctxs <- id + 1;
  t.epoch <- t.epoch + 1;
  Hashtbl.replace t.ctxs id
    { c_id = id;
      c_kind = kind;
      c_s = Hashtbl.create 16;
      c_out = Hashtbl.create 4;
      c_in = Hashtbl.create 4 };
  t.stats.Tableau.nodes_created <- t.stats.Tableau.nodes_created + 1;
  add_atom t id t.top;
  id

(* Canonical successor context for an existential filler atom: the
   generic element satisfying exactly {⊤, filler}. *)
let canon_ctx t b =
  match Hashtbl.find_opt t.canon_ctx b with
  | Some id -> id
  | None ->
      let id = new_ctx t Canon in
      Hashtbl.replace t.canon_ctx b id;
      add_atom t id b;
      id

let ind_ctx t a =
  let r = find t a in
  match Hashtbl.find_opt t.ind_ctx r with
  | Some id -> id
  | None ->
      let id = new_ctx t (Ind r) in
      Hashtbl.replace t.ind_ctx r id;
      id

(* ---- rule addition (with retroactive firing via [occ]) ---- *)

let fire_conj t rule x =
  let c = ctx t x in
  if Array.for_all (Hashtbl.mem c.c_s) rule.body then add_atom t x rule.head

let add_conj t body head =
  let rule = { body; head } in
  Array.iter
    (fun a ->
      let l = slot t.conj_by_atom a in
      l := rule :: !l)
    body;
  (* retro-fire on contexts that already contain the first body atom *)
  if Array.length body > 0 then
    List.iter (fire_conj t rule) !(slot t.occ body.(0))

let add_ex_lhs t r a head =
  let l = slot t.ex_lhs (r, a) in
  l := head :: !l;
  Hashtbl.replace t.ex_lhs_roles r ();
  (* retro-fire: every in-edge labelled [r] of a context containing [a] *)
  List.iter
    (fun y ->
      match Hashtbl.find_opt (ctx t y).c_in r with
      | None -> ()
      | Some srcs -> List.iter (fun w -> add_atom t w head) (keys srcs))
    !(slot t.occ a)

(* ---- worklist ---- *)

let process_atom t x a =
  (match Hashtbl.find_opt t.conj_by_atom a with
  | None -> ()
  | Some rules -> List.iter (fun r -> fire_conj t r x) !rules);
  (match Hashtbl.find_opt t.ex_rhs a with
  | None -> ()
  | Some succs -> List.iter (fun (r, b) -> add_edge t x r (canon_ctx t b)) !succs);
  (* in-edges: ∃r.a ⊑ h fires on every r-predecessor *)
  let c = ctx t x in
  let in_snapshot =
    Hashtbl.fold (fun r srcs acc -> (r, keys srcs) :: acc) c.c_in []
  in
  List.iter
    (fun (r, srcs) ->
      (match Hashtbl.find_opt t.ex_lhs (r, a) with
      | None -> ()
      | Some heads -> List.iter (fun h -> List.iter (fun w -> add_atom t w h) srcs) !heads);
      if a = t.bot then List.iter (fun w -> add_atom t w t.bot) srcs)
    in_snapshot

let process_edge t x r y =
  (* left-hand existentials over the atoms already at [y] *)
  List.iter
    (fun a ->
      match Hashtbl.find_opt t.ex_lhs (r, a) with
      | None -> ()
      | Some heads -> List.iter (fun h -> add_atom t x h) !heads)
    (keys (ctx t y).c_s);
  (* ⊥ propagates against edges: an element forced to have an impossible
     successor is itself impossible *)
  if Hashtbl.mem (ctx t y).c_s t.bot then add_atom t x t.bot;
  (* transitive composition, both directions *)
  if Hashtbl.mem t.trans r then begin
    (match Hashtbl.find_opt (ctx t y).c_out r with
    | None -> ()
    | Some zs -> List.iter (fun z -> add_edge t x r z) (keys zs));
    match Hashtbl.find_opt (ctx t x).c_in r with
    | None -> ()
    | Some ws -> List.iter (fun w -> add_edge t w r y) (keys ws)
  end

let saturate t =
  while not (Queue.is_empty t.work) do
    match Queue.pop t.work with
    | W_atom (x, a) -> process_atom t x a
    | W_edge (x, r, y) -> process_edge t x r y
  done

(* ---- definitional extension (normalization) ---- *)

(* [below t c] returns an atom derivable at a context iff [c] holds
   there in the canonical model — the shape for axiom LHSs and
   entailment goals.  Disjunction is two rules with a shared head. *)
let rec below t c =
  let c = Concept.canon c in
  match Hashtbl.find_opt t.below_memo c with
  | Some a -> a
  | None ->
      let a =
        match c with
        | Concept.Atom s -> atom t s
        | Concept.Top -> t.top
        | Concept.Bottom ->
            (* never derivable: ⊥ ⊑ R is vacuous *)
            fresh_atom t
        | Concept.And (x, y) ->
            let f = fresh_atom t in
            add_conj t [| below t x; below t y |] f;
            f
        | Concept.Or (x, y) ->
            let f = fresh_atom t in
            add_conj t [| below t x |] f;
            add_conj t [| below t y |] f;
            f
        | Concept.Exists (Role.Name r, d) ->
            let f = fresh_atom t in
            add_ex_lhs t (role t r) (below t d) f;
            f
        | _ -> invalid_arg "Completion.below: concept outside the Horn fragment"
      in
      Hashtbl.replace t.below_memo c a;
      a

(* [above t c]: asserting the returned atom at a context makes [c] hold
   there in the canonical model — the shape for axiom RHSs and ABox
   assertions. *)
let rec above t c =
  let c = Concept.canon c in
  match Hashtbl.find_opt t.above_memo c with
  | Some a -> a
  | None ->
      let a =
        match c with
        | Concept.Atom s -> atom t s
        | Concept.Top -> t.top
        | Concept.Bottom -> t.bot
        | Concept.And (x, y) ->
            let f = fresh_atom t in
            add_conj t [| f |] (above t x);
            add_conj t [| f |] (above t y);
            f
        | Concept.Exists (Role.Name r, d) ->
            let f = fresh_atom t in
            let b = above t d in
            let l = slot t.ex_rhs f in
            l := (role t r, b) :: !l;
            (* no retro-fire needed: [f] is fresh, no context has it *)
            f
        | _ -> invalid_arg "Completion.above: concept outside the EL fragment"
      in
      Hashtbl.replace t.above_memo c a;
      a

(* ---- construction ---- *)

let create ~max_nodes (kb : Axiom.kb) =
  (match Fragment.explain kb with
  | Some why -> raise (Backend.Unsupported ("horn backend: " ^ why))
  | None -> ());
  let t =
    { max_nodes;
      atom_ids = Hashtbl.create 256;
      prov_names = Hashtbl.create 256;
      n_atoms = 0;
      role_ids = Hashtbl.create 32;
      n_roles = 0;
      top = 0;
      bot = 1;
      role_subs = Hashtbl.create 16;
      supers_memo = Hashtbl.create 16;
      trans = Hashtbl.create 8;
      conj_by_atom = Hashtbl.create 256;
      ex_rhs = Hashtbl.create 64;
      ex_lhs = Hashtbl.create 64;
      ex_lhs_roles = Hashtbl.create 16;
      ctxs = Hashtbl.create 128;
      n_ctxs = 0;
      ind_ctx = Hashtbl.create 64;
      canon_ctx = Hashtbl.create 64;
      probe_memo = Hashtbl.create 16;
      root = -1;
      occ = Hashtbl.create 256;
      uf = Hashtbl.create 64;
      below_memo = Hashtbl.create 128;
      above_memo = Hashtbl.create 128;
      fresh_count = 0;
      work = Queue.create ();
      inconsistent = false;
      stats = Tableau.fresh_stats ();
      epoch = 0;
      regions = Hashtbl.create 128 }
  in
  let top = atom t "horn:top" and bot = atom t "horn:bot" in
  assert (top = t.top && bot = t.bot);
  (* role axioms first: [supers] must see the whole told hierarchy
     before any edge materializes *)
  List.iter
    (fun (ax : Axiom.tbox_axiom) ->
      match ax with
      | Axiom.Role_sub (Role.Name r, Role.Name s) ->
          let l = slot t.role_subs (role t r) in
          l := role t s :: !l
      | Axiom.Transitive r -> Hashtbl.replace t.trans (role t r) ()
      | _ -> ())
    kb.Axiom.tbox;
  (* concept inclusions *)
  List.iter
    (fun (ax : Axiom.tbox_axiom) ->
      match ax with
      | Axiom.Concept_sub (l, r) -> add_conj t [| below t l |] (above t r)
      | _ -> ())
    kb.Axiom.tbox;
  (* ABox: merge [Same] first so every assertion lands on the
     representative's context *)
  List.iter
    (function Axiom.Same (a, b) -> union t a b | _ -> ())
    kb.Axiom.abox;
  List.iter
    (fun (ax : Axiom.abox_axiom) ->
      match ax with
      | Axiom.Instance_of (a, c) -> add_atom t (ind_ctx t a) (above t c)
      | Axiom.Role_assertion (a, Role.Name r, b) ->
          add_edge t (ind_ctx t a) (role t r) (ind_ctx t b)
      | Axiom.Different (a, b) ->
          if String.equal (find t a) (find t b) then begin
            t.stats.Tableau.clashes <- t.stats.Tableau.clashes + 1;
            t.inconsistent <- true
          end
      | Axiom.Same _ -> ()
      | _ -> assert false (* excluded by the fragment check *))
    kb.Axiom.abox;
  t.root <- new_ctx t Root;
  saturate t;
  t

(* ---- provenance harvest ----

   A verdict's dependency region is the out-edge closure of its query
   contexts: S-sets are determined by a context's own seeds plus its
   successors' regions, so symbols outside the region cannot change the
   verdict.  Atoms are recorded under their interned provenance name,
   individuals through reached [Ind] contexts.

   A walk reads only contexts, edges and provenance-named memberships,
   and each of those bumps [epoch]; so a region memoized at the current
   epoch is exact, and a verdict pays one set union per root instead of
   a walk.  Keys are root contexts, plus [named] for the named set: the
   root and every individual context, one walk with one visited set.
   The memo lives and dies with [t]. *)

let named = -1

let named_roots t =
  t.root :: Hashtbl.fold (fun _ id acc -> id :: acc) t.ind_ctx []

let walk t roots =
  let p = Tableau.fresh_prov () in
  let seen = Hashtbl.create 64 in
  let q = Queue.create () in
  let push x =
    if not (Hashtbl.mem seen x) then begin
      Hashtbl.replace seen x ();
      Queue.push x q
    end
  in
  List.iter push roots;
  while not (Queue.is_empty q) do
    let c = ctx t (Queue.pop q) in
    (match c.c_kind with
    | Ind a -> Tableau.prov_add_ind p a
    | Root | Canon | Probe -> ());
    Hashtbl.iter
      (fun a () ->
        Option.iter (Tableau.prov_add_concept p) (Hashtbl.find_opt t.prov_names a))
      c.c_s;
    Hashtbl.iter (fun _ tgts -> Hashtbl.iter (fun y () -> push y) tgts) c.c_out
  done;
  p

let harvest t prov key =
  match prov with
  | None -> ()
  | Some into ->
      let region =
        match Hashtbl.find_opt t.regions key with
        | Some (e, r) when e = t.epoch -> r
        | _ ->
            let r = walk t (if key = named then named_roots t else [ key ]) in
            Hashtbl.replace t.regions key (t.epoch, r);
            r
      in
      Tableau.prov_union ~into region

(* ---- queries ---- *)

let consistent ?prov t =
  saturate t;
  harvest t prov named;
  not t.inconsistent

let entails_instance ?prov t a c =
  let g = below t c in
  saturate t;
  if t.inconsistent then begin
    harvest t prov named;
    true
  end
  else begin
    (* unknown individuals carry exactly the consequences of ⊤ — the
       root context is that element *)
    let x =
      match Hashtbl.find_opt t.ind_ctx (find t a) with
      | Some id -> id
      | None -> t.root
    in
    harvest t prov x;
    Hashtbl.mem (ctx t x).c_s g
  end

(* Satisfiability plans: NNF, then a capped DNF expansion into branches
   of positive-EL conjuncts and negated atoms.  [sat_answerable] is the
   pure capability check the router consults. *)

let branch_cap = 64

let sat_branches c =
  let rec dnf c =
    match c with
    | Concept.Or (a, b) ->
        let da = dnf a and db = dnf b in
        if List.length da + List.length db > branch_cap then raise Exit;
        da @ db
    | Concept.And (a, b) ->
        let da = dnf a and db = dnf b in
        if List.length da * List.length db > branch_cap then raise Exit;
        List.concat_map (fun x -> List.map (fun y -> x @ y) db) da
    | c -> [ [ c ] ]
  in
  match dnf (Concept.nnf c) with
  | exception Exit -> None
  | branches ->
      let split lits =
        List.fold_left
          (fun acc l ->
            match (acc, l) with
            | None, _ -> None
            | Some (pos, negs), Concept.Not (Concept.Atom a) ->
                Some (pos, a :: negs)
            | Some (pos, negs), l ->
                if Fragment.el_concept l then Some (l :: pos, negs) else None)
          (Some ([], []))
          lits
      in
      List.fold_left
        (fun acc b ->
          match (acc, split b) with
          | Some bs, Some s -> Some (s :: bs)
          | _ -> None)
        (Some []) branches

let sat_answerable c = sat_branches c <> None

(* One probe context per distinct positive part, memoized: the generic
   element satisfying exactly the branch's positive conjuncts. *)
let probe t pos =
  let key = Concept.canon (Concept.conj (Concept.Top :: pos)) in
  match Hashtbl.find_opt t.probe_memo key with
  | Some id -> id
  | None ->
      let id = new_ctx t Probe in
      Hashtbl.replace t.probe_memo key id;
      List.iter (fun c -> add_atom t id (above t c)) pos;
      id

let concept_satisfiable ?prov t c =
  match sat_branches c with
  | None -> invalid_arg "Completion.concept_satisfiable: unanswerable shape"
  | Some branches ->
      saturate t;
      if t.inconsistent then begin
        harvest t prov named;
        false
      end
      else
        List.exists
          (fun (pos, negs) ->
            let x = probe t pos in
            saturate t;
            harvest t prov x;
            let s = (ctx t x).c_s in
            (not (Hashtbl.mem s t.bot))
            && not (List.exists (fun n -> Hashtbl.mem s (atom t n)) negs))
          branches

let role_edge ?prov t a r b =
  saturate t;
  if t.inconsistent then begin
    harvest t prov named;
    true
  end
  else
    match
      ( Hashtbl.find_opt t.ind_ctx (find t a),
        Hashtbl.find_opt t.ind_ctx (find t b) )
    with
    | Some xa, Some xb -> (
        harvest t prov xa;
        harvest t prov xb;
        match Hashtbl.find_opt (ctx t xa).c_out (role t r) with
        | None -> false
        | Some tgts -> Hashtbl.mem tgts xb)
    | _ ->
        (* an unknown individual has no entailed edges in a consistent KB *)
        harvest t prov named;
        false

let role_inert t r =
  Array.for_all
    (fun s -> (not (Hashtbl.mem t.ex_lhs_roles s)) && not (Hashtbl.mem t.trans s))
    (supers t (role t r))
