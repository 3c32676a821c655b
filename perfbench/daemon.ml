(* A fresh soimap --serve daemon per run.  See daemon.mli. *)

type t = { pid : int; addr : Service.Protocol.addr; log : string }

(* Daemons started and not yet reaped, with their socket paths. *)
let live : (int * string) list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let st = go () in
  live := List.filter (fun (p, _) -> p <> pid) !live;
  st

let () =
  at_exit (fun () ->
      List.iter
        (fun (pid, sock) ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (reap pid) with Unix.Unix_error _ -> ());
          try Sys.remove sock with Sys_error _ -> ())
        !live)

let pid t = t.pid
let seq = ref 0

let connect t =
  match Service.Client.connect_retry ~timeout:60. ~attempts:500 ~delay:0.02 t.addr with
  | Ok c -> c
  | Error msg -> failwith ("cannot reach the daemon: " ^ msg)

let tail_of_log path =
  try
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    String.trim s
  with Sys_error _ -> ""

let start ~exe ~dir ~jobs ~dispatchers =
  incr seq;
  let stem = Printf.sprintf "%s/soimapd-%d-%d" dir (Unix.getpid ()) !seq in
  let sock = stem ^ ".sock" and log = stem ^ ".log" in
  let addr = Service.Protocol.Unix_sock sock in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let args =
    [|
      exe; "--serve"; "unix:" ^ sock; "--jobs"; string_of_int jobs;
      "--dispatchers"; string_of_int dispatchers; "--queue-depth"; "16";
    |]
  in
  match Unix.create_process exe args null null fd with
  | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Unix.close null;
      Error (Printf.sprintf "cannot start %s: %s" exe (Unix.error_message e))
  | pid -> (
      Unix.close fd;
      Unix.close null;
      live := (pid, sock) :: !live;
      let t = { pid; addr; log } in
      match connect t with
      | exception Failure msg ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (reap pid);
          Error (msg ^ "\n" ^ tail_of_log log)
      | c ->
          let r = Service.Client.request c {|{"id":"ping","op":"ping"}|} in
          Service.Client.close c;
          (match r with
          | Ok j when Service.Protocol.response_status j = Ok "ok" -> Ok t
          | Ok _ -> Error "ping: unexpected response"
          | Error msg -> Error ("ping: " ^ msg)))

let ledger c =
  match Service.Client.request c {|{"id":"stats","op":"stats"}|} with
  | Error msg -> Error ("stats: " ^ msg)
  | Ok j -> (
      match Obs.Json.member "service" j with
      | Some (Obs.Json.Obj kvs) ->
          Ok (List.filter_map (fun (k, v) -> Option.map (fun n -> (k, n)) (Obs.Json.to_int v)) kvs)
      | _ -> Error "stats: no service object")

let check_ledger l ~expected =
  let get k = Option.value (List.assoc_opt k l) ~default:(-1) in
  let errs = ref [] in
  let req = get "requests" in
  let sum = get "ok" + get "degraded" + get "failed" + get "rejected" in
  if req <> sum then
    errs := Printf.sprintf "ledger: requests %d <> ok+degraded+failed+rejected %d" req sum :: !errs;
  if get "rejected" <> 0 then errs := Printf.sprintf "ledger: rejected = %d" (get "rejected") :: !errs;
  if get "errors" <> 0 then errs := Printf.sprintf "ledger: errors = %d" (get "errors") :: !errs;
  if req <> expected then
    errs := Printf.sprintf "ledger: requests %d, sent %d" req expected :: !errs;
  List.rev !errs

let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  match reap t.pid with
  | Unix.WEXITED 0 ->
      (try Sys.remove t.log with Sys_error _ -> ());
      Ok ()
  | Unix.WEXITED n -> Error (Printf.sprintf "daemon exited %d: %s" n (tail_of_log t.log))
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> Error (Printf.sprintf "daemon killed by signal %d" n)

let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  let ic = open_in path in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect find ~finally:(fun () -> close_in ic) in
  float_of_int kb /. 1024.
