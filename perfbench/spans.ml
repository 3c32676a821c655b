(* The traced run's span recorder.  See spans.mli. *)

type rec_span = {
  name : string;
  req : int;
  parent : int;
  start : int64;
  mutable stop : int64;
  mutable child_ns : int64;
}

let enabled = ref false
let set_enabled b = enabled := b
let spans : rec_span list ref = ref []
let count = ref 0
let open_ : (int * rec_span) list ref = ref []

let reset () =
  spans := [];
  count := 0;
  open_ := []

let span name ~req f =
  if not !enabled then f ()
  else begin
    let parent = match !open_ with (i, _) :: _ -> i | [] -> -1 in
    let s = { name; req; parent; start = Obs.Clock.now_ns (); stop = 0L; child_ns = 0L } in
    let id = !count in
    incr count;
    spans := s :: !spans;
    open_ := (id, s) :: !open_;
    Fun.protect f ~finally:(fun () ->
        s.stop <- Obs.Clock.now_ns ();
        open_ := List.tl !open_;
        match !open_ with
        | (_, p) :: _ -> p.child_ns <- Int64.add p.child_ns (Int64.sub s.stop s.start)
        | [] -> ())
  end

type summary = { name : string; calls : int; total_ms : float; self_ms : float }

let summarise () =
  let tbl = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun (s : rec_span) ->
      let d = Int64.sub s.stop s.start in
      let calls, total, self =
        match Hashtbl.find_opt tbl s.name with
        | Some x -> x
        | None ->
            order := s.name :: !order;
            (0, 0L, 0L)
      in
      Hashtbl.replace tbl s.name
        (calls + 1, Int64.add total d, Int64.add self (Int64.sub d s.child_ns)))
    (List.rev !spans);
  List.rev_map
    (fun name ->
      let calls, total, self = Hashtbl.find tbl name in
      { name; calls; total_ms = Obs.Clock.ns_to_ms total; self_ms = Obs.Clock.ns_to_ms self })
    !order

let find sums name = List.find_opt (fun (s : summary) -> s.name = name) sums

let mean_self_ms sums name =
  match find sums name with
  | Some s when s.calls > 0 -> s.self_ms /. float_of_int s.calls
  | _ -> 0.

let write path =
  let oc = open_out path in
  let t0 = match List.rev !spans with s :: _ -> s.start | [] -> 0L in
  let us t = Int64.to_float (Int64.sub t t0) /. 1000. in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i (s : rec_span) ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        {|{"name":"%s","ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"req":%d,"parent":%d}}|}
        s.name (us s.start) (us s.stop -. us s.start) s.req s.parent)
    (List.rev !spans);
  output_string oc "]}\n";
  close_out oc
