(* Order statistics for the benchmark's reports.

   A latency percentile is reported only when at least ten samples lie
   beyond it: below that, the value is set by a handful of outliers and
   moves from run to run for no reason the code controls. Percentiles
   use the nearest-rank definition, so a reported value is always one
   of the samples. *)

let min_beyond = 10

let sorted_copy xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* 0-based nearest-rank index of the [p]-th percentile of [n] samples *)
let rank ~n p =
  let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
  max 0 (min (n - 1) k)

let beyond ~n p = n - 1 - rank ~n p

let percentile xs p =
  let n = Array.length xs in
  if n = 0 || beyond ~n p < min_beyond then None
  else Some (sorted_copy xs).(rank ~n p)

(* The median of a handful of repeated measurements (rounds, set-ups):
   a summary of whole runs, not a latency tail, so no minimum count. *)
let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Quant.median: no samples";
  let a = sorted_copy xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum xs = Array.fold_left ( +. ) 0.0 xs

let mean xs =
  if Array.length xs = 0 then 0.0 else sum xs /. float_of_int (Array.length xs)
