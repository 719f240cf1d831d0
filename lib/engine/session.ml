type config = Oracle.config = {
  cache_capacity : int;
  max_nodes : int;
  max_branches : int;
  backend : Backend.choice;
}

let default_config = Oracle.default_config

type t = { engine : Engine.t }

let create ?(config = default_config) kb = { engine = Engine.of_config config kb }
let of_engine engine = { engine }
let of_oracle oracle = { engine = Engine.of_oracle oracle }
let engine t = t.engine
let oracle t = Engine.oracle t.engine
let kb t = Engine.kb t.engine
let classical_kb t = Oracle.classical_kb (oracle t)
let config t = Oracle.config (oracle t)
let apply t d = Engine.apply t.engine d

let apply_all t ds =
  (* seed the fold with a no-op apply so an empty list still reports the
     true retained count (and the zero record stays in one place) *)
  List.fold_left
    (fun (acc : Oracle.apply_stats) d ->
      let s = apply t d in
      { Oracle.evicted = acc.Oracle.evicted + s.Oracle.evicted;
        retained = s.Oracle.retained;
        flushed = acc.Oracle.flushed || s.Oracle.flushed;
        consistency_flipped =
          acc.Oracle.consistency_flipped || s.Oracle.consistency_flipped;
        recheck_calls = acc.Oracle.recheck_calls + s.Oracle.recheck_calls })
    (apply t Delta.empty) ds

let costs t = Oracle.costs (oracle t)
let cost_totals t = Oracle.cost_totals (oracle t)
