(* Order statistics and the benchmark's per-process probes. *)

external clock_ns : unit -> int = "perf_clock_ns" [@@noalloc]

(* seconds on a monotonic clock, nanosecond resolution *)
let now () = float_of_int (clock_ns ()) *. 1e-9

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0. xs

(* Percentiles in tenths of a percent, nearest rank: the p-th value is
   the [ceil (p * n / 1000)]-th smallest, and the samples beyond it are
   the ones ranked after it. *)
let rank ~permille n = ((permille * n) + 999) / 1000
let beyond ~permille n = n - rank ~permille n
let ladder = 999 :: 995 :: List.init 50 (fun k -> 990 - (10 * k))

(* The tail rule: the highest percentile of the ladder with at least 10
   samples beyond it.  Returns (permille, value, samples beyond). *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let permille =
    match List.find_opt (fun p -> beyond ~permille:p n >= 10) ladder with
    | Some p -> p
    | None -> 500
  in
  let r = max 1 (rank ~permille n) in
  (permille, a.(r - 1), n - r)

let percentile_name permille =
  if permille mod 10 = 0 then Printf.sprintf "p%d" (permille / 10)
  else Printf.sprintf "p%d.%d" (permille / 10) (permille mod 10)

(* Peak resident set of this process (VmHWM), in kB; 0 where /proc is
   unavailable. *)
let peak_rss_kb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> 0
          | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
          | Some _ -> scan ()
        in
        scan ())
  with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> 0
