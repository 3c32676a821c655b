(* The correctness gate.  See verify.mli. *)

let vectors = 2048

let against_source c net =
  let n = Array.length (Logic.Network.inputs net) in
  n = Array.length c.Domino.Circuit.input_names
  &&
  let rng = Logic.Rng.create 0x5EED in
  let ok = ref true in
  for _ = 1 to vectors / 64 do
    if !ok then begin
      let words = Logic.Eval.random_words rng n in
      let want = Logic.Eval.eval_outputs64 net words in
      let got = Domino.Circuit.eval64 c words in
      ok :=
        Array.length want = Array.length got
        && Array.for_all
             (fun (name, v) ->
               match Array.find_opt (fun (m, _) -> m = name) got with
               | Some (_, w) -> Int64.equal v w
               | None -> false)
             want
    end
  done;
  !ok

let circuit c ~source ~unate =
  Domino.Circuit.equivalent_to ~vectors c unate && against_source c source

let counts_of_response j =
  match Obs.Json.member "counts" j with
  | None -> None
  | Some m -> (
      let get k = Option.bind (Obs.Json.member k m) Obs.Json.to_int in
      match
        ( get "t_logic", get "t_disch", get "t_total", get "t_clock", get "gates",
          get "levels", get "pi_inverters" )
      with
      | Some t_logic, Some t_disch, Some t_total, Some t_clock, Some gate_count,
        Some levels, Some pi_inverters ->
          Some
            { Domino.Circuit.t_logic; t_disch; t_total; t_clock; gate_count; levels; pi_inverters }
      | _ -> None)

let pp_counts (c : Domino.Circuit.counts) =
  Printf.sprintf "t_total=%d t_disch=%d levels=%d gates=%d" c.t_total c.t_disch c.levels
    c.gate_count
