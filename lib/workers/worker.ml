(* Forked worker processes with line-framed pipes.  See worker.mli; the
   discipline is described once in DESIGN.md ("Worker processes"). *)

type t = {
  pid : int;
  cmd : Unix.file_descr;
  msg : Unix.file_descr;
  lines : Lines.t;
  mutable last_beat : float;
  mutable eof : bool;
  mutable status : Unix.process_status option;
}

let now () = Unix.gettimeofday ()

let one_line s = String.map (fun c -> if c = '\n' then ' ' else c) s

(* On Unix a [Unix.file_descr] is the descriptor number itself; fork-based
   workers exist only there. *)
let fd_of_int : int -> Unix.file_descr = Obj.magic
let int_of_fd : Unix.file_descr -> int = Obj.magic

(* In the child: close every descriptor inherited from the parent except
   stdin, stdout, stderr and [keep].  Without this a worker would hold the
   parent's other pipes, listeners and client sockets open for as long as
   it lives, and the far end of each would never see end of file. *)
let close_inherited ~keep =
  let keep = List.map int_of_fd keep in
  let listing =
    try Sys.readdir "/proc/self/fd"
    with Sys_error _ -> ( try Sys.readdir "/dev/fd" with Sys_error _ -> [||])
  in
  Array.iter
    (fun entry ->
      match int_of_string_opt entry with
      | Some n when n > 2 && not (List.mem n keep) -> (
          try Unix.close (fd_of_int n) with Unix.Unix_error _ -> ())
      | _ -> ())
    listing

let spawn body =
  let cmd_r, cmd = Unix.pipe () in
  let msg, msg_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      close_inherited ~keep:[ cmd_r; msg_w ];
      let ic = Unix.in_channel_of_descr cmd_r in
      let recv () = try Some (input_line ic) with End_of_file -> None in
      (match body ~recv ~send:(Lines.write msg_w) with
      | () -> Unix._exit 0
      | exception _ -> Unix._exit 2)
  | pid ->
      Unix.close cmd_r;
      Unix.close msg_w;
      (* a caller's readable set can outlive a respawn that recycles this
         descriptor number: reading must never block on a silent pipe *)
      Unix.set_nonblock msg;
      { pid; cmd; msg; lines = Lines.create (); last_beat = now (); eof = false;
        status = None }

(* Record the exit status and release the parent's pipe ends, exactly once:
   a second close could hit a descriptor number already reused. *)
let reaped t status =
  t.status <- Some status;
  (try Unix.close t.cmd with Unix.Unix_error _ -> ());
  try Unix.close t.msg with Unix.Unix_error _ -> ()

let send t line =
  t.status = None
  &&
  match Lines.write t.cmd line with
  | () -> true
  | exception Unix.Unix_error ((EPIPE | EBADF), _, _) -> false

let scratch = Bytes.create 65536

let drain t ~readable on_line =
  if t.status = None && (not t.eof) && List.mem t.msg readable then
    match Unix.read t.msg scratch 0 (Bytes.length scratch) with
    | 0 -> t.eof <- true
    | k ->
        Lines.add t.lines scratch 0 k;
        Seq.of_dispenser (fun () -> Lines.pop t.lines)
        |> Seq.iter (fun line ->
               t.last_beat <- now ();
               on_line line)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()

let reap t =
  match t.status with
  | Some _ as s -> s
  | None -> (
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ -> None
      | _, status ->
          reaped t status;
          t.status
      | exception Unix.Unix_error (ECHILD, _, _) ->
          reaped t (Unix.WEXITED 0);
          t.status)

let wait t =
  if t.status = None then
    let rec go () =
      match Unix.waitpid [] t.pid with
      | _, status -> reaped t status
      | exception Unix.Unix_error (EINTR, _, _) -> go ()
      | exception Unix.Unix_error (ECHILD, _, _) -> reaped t (Unix.WEXITED 0)
    in
    go ()

let kill t =
  if t.status = None then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    wait t
  end

let stale t ~timeout = now () -. t.last_beat > timeout

let select workers timeout =
  let fds =
    List.filter_map
      (fun t -> if t.status = None && not t.eof then Some t.msg else None)
      workers
  in
  if fds = [] then []
  else
    match Unix.select fds [] [] timeout with
    | ready, _, _ -> ready
    | exception Unix.Unix_error (EINTR, _, _) -> []

let with_sigpipe_ignored f =
  let previous =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  Fun.protect f ~finally:(fun () ->
      match previous with
      | Some h -> (
          try Sys.set_signal Sys.sigpipe h with Invalid_argument _ -> ())
      | None -> ())
