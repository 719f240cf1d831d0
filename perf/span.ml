(* Benchmark-side spans and the per-layer ledger built from them.

   A span wraps one call into a layer: name, start, end, parent span and
   op id.  Work a layer reports through its own counters (the backend
   eval wall time summed in the oracle's cost totals) is recorded as a
   counted child of the span that caused it, so the caller's self time
   excludes it.  A span's self time is its duration minus its children's
   durations; the op's root span keeps what no layer claims — the
   residual — so the self times of one op always sum to its wall time. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for the op's root span *)
  op : int;
  t0 : float;
  t1 : float;
}

type t = {
  op : int;
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;
}

let create ~op = { op; next = 0; stack = []; spans = [] }
let dur s = s.t1 -. s.t0
let parent t = match t.stack with p :: _ -> p | [] -> -1

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

let within t name f =
  let id = fresh t and parent = parent t in
  t.stack <- id :: t.stack;
  let t0 = Stats.now () in
  let finish () =
    t.stack <- List.tl t.stack;
    t.spans <- { id; name; parent; op = t.op; t0; t1 = Stats.now () } :: t.spans
  in
  match f () with
  | x ->
      finish ();
      x
  | exception e ->
      finish ();
      raise e

(* a counted child of [parent] (default: the current span), [seconds]
   long, ending now *)
let counted ?parent:p t name seconds =
  let id = fresh t in
  let parent = match p with Some p -> p | None -> parent t in
  (* placed at the end of a parent that has already closed *)
  let t1 =
    match List.find_opt (fun s -> s.id = parent) t.spans with
    | Some s -> s.t1
    | None -> Stats.now ()
  in
  t.spans <- { id; name; parent; op = t.op; t0 = t1 -. seconds; t1 } :: t.spans

let spans t = List.rev t.spans

(* (span, self seconds) for every span of one op *)
let self_times spans =
  let covered = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    spans;
  List.map
    (fun s -> (s, dur s -. Option.value ~default:0. (Hashtbl.find_opt covered s.id)))
    spans

type ledger = {
  wall : float;  (** summed op wall time, s *)
  layers : (string * float) list;  (** self time per layer, s, by name *)
  residual : float;  (** root self time: covered by no layer span *)
}

let residual_name = "residual"

(* one ledger over many ops; [spans] holds each op's spans *)
let ledger ops =
  let layers = Hashtbl.create 16 in
  let wall = ref 0. and residual = ref 0. in
  List.iter
    (fun spans ->
      List.iter
        (fun (s, self) ->
          if s.parent < 0 then begin
            wall := !wall +. dur s;
            residual := !residual +. self
          end
          else
            Hashtbl.replace layers s.name
              (self +. Option.value ~default:0. (Hashtbl.find_opt layers s.name)))
        (self_times spans))
    ops;
  { wall = !wall;
    layers =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) layers []);
    residual = !residual }

(* the ledger as report lines: each layer's self time and share of the
   op wall time *)
let lines title ~ops l =
  let share x = if l.wall > 0. then 100. *. x /. l.wall else 0. in
  Printf.sprintf "ledger (%s): self time per layer over %d ops, %.3f ms op wall"
    title ops (1000. *. l.wall)
  :: List.map
       (fun (name, self) ->
         Printf.sprintf "  %-22s %10.3f ms  %6.2f%%" name (1000. *. self) (share self))
       (l.layers @ [ (residual_name, l.residual) ])

(* one JSON object per span, for offline inspection *)
let write_json path ops =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (List.iter (fun (s : span) ->
             Printf.fprintf oc
               "{\"op\":%d,\"id\":%d,\"parent\":%d,\"name\":%S,\"start_us\":%.1f,\"end_us\":%.1f}\n"
               s.op s.id s.parent s.name (s.t0 *. 1e6) (s.t1 *. 1e6)))
        ops)
