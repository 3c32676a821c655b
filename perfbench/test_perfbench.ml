(* The benchmark's own tests: the tail-percentile rule and its printed
   sample counts, and seed-determinism of every workload's request
   stream.  Run with [dune test perfbench]. *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let ramp n = Array.init n (fun i -> float_of_int (i + 1))

let tail_rule () =
  (* n = 1000: p99 has exactly 10 samples beyond it, p99.5 only 5. *)
  let t = Stats.tail (ramp 1000) in
  check "n=1000 picks p99" (t.pct = 99. && t.beyond = 10 && t.value = 990.);
  check "n=1000 label" (Stats.tail_label t = "p99 (n=1000, 10 beyond)");
  (* n = 800: p99 leaves 8 beyond, so p98 (16 beyond). *)
  let t = Stats.tail (ramp 800) in
  check "n=800 picks p98" (t.pct = 98. && t.beyond = 16 && t.value = 784.);
  check "n=800 label" (Stats.tail_label t = "p98 (n=800, 16 beyond)");
  (* n = 20: p50 leaves exactly 10 beyond. *)
  let t = Stats.tail (ramp 20) in
  check "n=20 picks p50" (t.pct = 50. && t.beyond = 10 && t.value = 10.);
  (* Too few samples for any ladder step: the maximum, nothing beyond. *)
  let t = Stats.tail (ramp 7) in
  check "n=7 falls back to the max" (t.pct = 100. && t.beyond = 0 && t.value = 7.);
  (* Order does not matter, and at least [min_beyond] are always beyond
     whenever a ladder step was chosen. *)
  let shuffled = ramp 3750 in
  Logic.Rng.shuffle (Logic.Rng.create 7) shuffled;
  let t = Stats.tail shuffled in
  check "n=3750 picks p99.5" (t.pct = 99.5 && t.beyond = 18 && t.samples = 3750);
  check "beyond >= min_beyond" (t.beyond >= Stats.min_beyond);
  check "median" (Stats.median (ramp 4) = 2.5 && Stats.median (ramp 5) = 3.)

let zipf () =
  let q = Traffic.zipf_quotas ~total:3750 Traffic.hot_set in
  check "quotas sum" (Array.fold_left ( + ) 0 q = 3750);
  check "quotas non-increasing"
    (Array.for_all Fun.id (Array.init (Array.length q - 1) (fun i -> q.(i) >= q.(i + 1))));
  let q = Traffic.zipf_quotas ~total:12 Traffic.hot_set in
  check "one each" (Array.for_all (( = ) 1) q)

let streams () =
  let twice f = (f 3, f 3, f 4) in
  let a, b, c = twice (fun seed -> Traffic.compile_digest (Traffic.compile ~seed ~passes:2)) in
  check "compile: same seed, same stream" (a = b);
  check "compile: other seed, other stream" (a <> c);
  let a, b, c =
    twice (fun seed -> Traffic.serve_digest (Traffic.serve_repeat ~seed ~requests:300))
  in
  check "serve_repeat: same seed, same stream" (a = b);
  check "serve_repeat: other seed, other stream" (a <> c);
  let a, b, c = twice (fun seed -> Traffic.remap_digest (Traffic.remap_eco ~seed ~requests:20)) in
  check "remap_eco: same seed, same stream" (a = b);
  check "remap_eco: other seed, other stream" (a <> c)

let remap_shape () =
  let r = Traffic.remap_eco ~seed:5 ~requests:40 in
  check "remap_eco length" (Array.length r.steps = 40);
  check "first request switches base" r.steps.(0).switch;
  Array.iteri
    (fun i (s : Traffic.remap_req) ->
      if i > 0 then
        check "a base switch starts every segment"
          (s.switch = (s.segment <> r.steps.(i - 1).segment));
      check "payload differs from its base" (s.payload <> s.base))
    r.steps

let () =
  tail_rule ();
  zipf ();
  streams ();
  remap_shape ();
  if !failures > 0 then exit 1;
  print_endline "perfbench: all tests passed"
