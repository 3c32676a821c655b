(* Order statistics for the benchmark's latency samples.  See stats.mli. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest rank: the smallest sample with at least [q]% of the samples
   at or below it. *)
let rank ~n q = max 1 (int_of_float (Float.ceil (q /. 100. *. float_of_int n -. 1e-9)))

let ladder = [ 99.9; 99.5; 99.0; 98.0; 95.0; 90.0; 75.0; 50.0 ]
let min_beyond = 10

type tail = { pct : float; value : float; beyond : int; samples : int }

let tail xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.tail: no samples";
  let a = sorted xs in
  let at q =
    let r = rank ~n q in
    { pct = q; value = a.(r - 1); beyond = n - r; samples = n }
  in
  match List.find_opt (fun q -> n - rank ~n q >= min_beyond) ladder with
  | Some q -> at q
  | None -> at 100.

let tail_label t = Printf.sprintf "p%g (n=%d, %d beyond)" t.pct t.samples t.beyond
