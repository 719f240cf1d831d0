(** Bounded LRU memoization of tableau verdicts.

    Every reasoning service of the stack bottoms out in a boolean tableau
    verdict ("is [K̄] plus this query satisfiable?").  The cache maps
    canonical query keys to values with least-recently-used eviction, so a
    query-traffic workload pays the tableau only once per distinct canonical
    query while the working set fits the capacity.  The oracle's value is
    one record per resident verdict (the verdict, its provenance group and
    its cost record), so everything a verdict carries enters and leaves
    the cache with it.

    All operations are O(1) amortized (hash table plus an intrusive
    doubly-linked recency list). *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;      (** current number of cached entries *)
  capacity : int;
}

module Make (K : Hashtbl.HashedType) : sig
  type 'v t

  val create : capacity:int -> 'v t
  (** [capacity <= 0] creates a disabled cache: every lookup misses, nothing
      is stored — what the CLI's [--cache-size 0] selects. *)

  val on_evict : 'v t -> (K.t -> 'v -> unit) -> unit
  (** Install a hook called with the key and value of every entry dropped
      by a {e capacity} eviction (the LRU making room for a new entry), so
      the caller can release what the value holds elsewhere (e.g. its
      place in a dependency index).  Replaces any previously installed
      hook.  It is {e not} called by {!remove} or {!purge}: explicit
      invalidation is the caller's own act, and {!remove} hands the value
      back. *)

  val length : 'v t -> int

  val find : 'v t -> K.t -> 'v option
  (** Counts a hit (and refreshes recency) or a miss. *)

  val peek : 'v t -> K.t -> 'v option
  (** Lookup without side effects: no counter moves and recency is not
      refreshed, so reading a resident entry's record does not distort
      the hit/miss statistics or the eviction order. *)

  val add : 'v t -> K.t -> 'v -> unit
  (** Inserts or overwrites; evicts the least recently used entry when the
      capacity is exceeded. *)

  val remove : 'v t -> K.t -> 'v option
  (** Drop one entry (selective invalidation, e.g. after a KB delta whose
      touched symbols intersect the entry's provenance) and return its
      value, [None] when the key was absent.  Does not count as an
      eviction — capacity evictions and invalidations are different
      signals. *)

  val entries : 'v t -> (K.t * 'v) list
  (** All cached entries in recency order, {e least} recently used first —
      the order a snapshot must replay them through {!add} so the restored
      cache reproduces the same LRU structure (the last entry re-added is
      again the most recent). *)

  val stats : 'v t -> stats

  val restore_stats :
    'v t -> hits:int -> misses:int -> evictions:int -> unit
  (** Overwrite the hit/miss/eviction counters — the snapshot-restore
      path, so a re-warmed session's footer continues the saved session's
      history instead of restarting from zero. *)

  val purge : 'v t -> unit
  (** Drops all entries but keeps the hit/miss/eviction counters — a full
      flush after a KB delta, without distorting the session's statistics. *)
end
