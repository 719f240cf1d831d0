type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

(* Registry mirrors, aggregated over every cache instance in the
   process.  Per-instance counts stay in each instance's [stats]. *)
let c_hits = Obs.counter "cache.hits"
let c_misses = Obs.counter "cache.misses"
let c_evictions = Obs.counter "cache.evictions"

module Make (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  (* Intrusive doubly-linked recency list; [front] is most recent. *)
  type 'v node = {
    key : K.t;
    mutable value : 'v;
    mutable prev : 'v node option;  (* towards the front *)
    mutable next : 'v node option;  (* towards the back *)
  }

  type 'v t = {
    capacity : int;
    mutable on_evict : K.t -> 'v -> unit;
    table : 'v node H.t;
    mutable front : 'v node option;
    mutable back : 'v node option;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create ~capacity =
    let capacity = max 0 capacity in
    { capacity;
      on_evict = (fun _ _ -> ());
      table = H.create (max 16 (min capacity 4096));
      front = None;
      back = None;
      hits = 0;
      misses = 0;
      evictions = 0 }

  let on_evict t f = t.on_evict <- f

  let length t = H.length t.table

  let unlink t n =
    (match n.prev with Some p -> p.next <- n.next | None -> t.front <- n.next);
    (match n.next with Some s -> s.prev <- n.prev | None -> t.back <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_front t n =
    n.next <- t.front;
    n.prev <- None;
    (match t.front with Some f -> f.prev <- Some n | None -> t.back <- Some n);
    t.front <- Some n

  let touch t n =
    match t.front with
    | Some f when f == n -> ()
    | _ ->
        unlink t n;
        push_front t n

  let find t k =
    match H.find_opt t.table k with
    | Some n ->
        t.hits <- t.hits + 1;
        Obs.incr c_hits;
        touch t n;
        Some n.value
    | None ->
        t.misses <- t.misses + 1;
        Obs.incr c_misses;
        None

  let peek t k = Option.map (fun n -> n.value) (H.find_opt t.table k)

  let evict_lru t =
    match t.back with
    | None -> ()
    | Some n ->
        unlink t n;
        H.remove t.table n.key;
        t.evictions <- t.evictions + 1;
        Obs.incr c_evictions;
        t.on_evict n.key n.value

  let add t k v =
    if t.capacity > 0 then begin
      (match H.find_opt t.table k with
      | Some n ->
          n.value <- v;
          touch t n
      | None ->
          let n = { key = k; value = v; prev = None; next = None } in
          H.replace t.table k n;
          push_front t n);
      while H.length t.table > t.capacity do
        evict_lru t
      done
    end

  let remove t k =
    match H.find_opt t.table k with
    | None -> None
    | Some n ->
        unlink t n;
        H.remove t.table k;
        Some n.value

  let entries t =
    (* walk back-to-front along [prev] links: LRU first, MRU last *)
    let rec go acc = function
      | None -> List.rev acc
      | Some n -> go ((n.key, n.value) :: acc) n.prev
    in
    go [] t.back

  let stats t =
    { hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      size = H.length t.table;
      capacity = t.capacity }

  let restore_stats t ~hits ~misses ~evictions =
    t.hits <- hits;
    t.misses <- misses;
    t.evictions <- evictions

  let purge t =
    H.reset t.table;
    t.front <- None;
    t.back <- None
end
