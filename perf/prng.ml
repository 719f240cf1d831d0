(* SplitMix64: the benchmark's own generator, so its inputs depend only
   on the seed and never on the standard library's Random algorithm. *)

type t = { mutable state : int64 }

let make seed = { state = Int64.of_int seed }

let next t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* an independent stream for item [i] of a seeded family *)
let derive seed i =
  let t = make seed in
  make (Int64.to_int (next t) lxor (i * 0x2545F491))

let int t bound = Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int bound))

let float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.

let chance t p = float t < p

let shuffle t a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Zipf(s) over ranks [0, n): inverse-CDF sampling on a precomputed table *)
let zipf_table ~n ~s =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for k = 0 to n - 1 do
    acc := !acc +. (1. /. (float_of_int (k + 1) ** s));
    cdf.(k) <- !acc
  done;
  Array.map (fun c -> c /. !acc) cdf

let zipf t cdf =
  let u = float t in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo
