(* The serving worker pool.  Workers are {!Specrepair_workers.Worker}
   processes (fork, pipes, line framing, reaping, kill); this module adds
   the REQ/QUIT and HB/RES messages and the daemon's policy: workers are
   long-lived and sticky (warm caches accrue per slot), requests are
   individually dispatched rather than chunked, and a lost worker fails
   exactly its in-flight request — the daemon turns that into one error
   reply, never a retry (repair requests are not idempotent in wall-clock
   cost). *)

module Worker = Specrepair_workers.Worker

type inflight = {
  token : int;
  kill_at : float option;  (* hard deadline; None = never killed *)
}

type slot = {
  index : int;
  mutable proc : Worker.t;
  mutable inflight : inflight option;
}

type t = {
  slots : slot array;
  handle : string -> string * Handler.warmth;
  mutable respawns : int;
}

type event =
  | Reply of { token : int; warmth : Handler.warmth; line : string }
  | Died of { token : int; slot : int }
  | Timed_out of { token : int; slot : int }

let warmth_char = function
  | Handler.Warm -> 'W'
  | Handler.Cold -> 'C'
  | Handler.Reused -> 'R'
  | Handler.Uncached -> 'U'

let warmth_of_char = function
  | "W" -> Some Handler.Warm
  | "C" -> Some Handler.Cold
  | "R" -> Some Handler.Reused
  | "U" -> Some Handler.Uncached
  | _ -> None

(* {2 Worker side} *)

let worker_main ~handle ~recv ~send =
  (* the daemon's signal discipline must not leak into workers: a SIGTERM
     aimed at the daemon is handled there, workers are killed explicitly *)
  (try Sys.set_signal Sys.sigterm Sys.Signal_default with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint Sys.Signal_default with Invalid_argument _ -> ());
  let rec loop () =
    match recv () with
    | None | Some "QUIT" -> ()
    | Some line -> (
        match String.index_opt line ' ' with
        | Some sp when String.sub line 0 sp = "REQ" -> (
            let rest = String.sub line (sp + 1) (String.length line - sp - 1) in
            match String.index_opt rest ' ' with
            | Some sp2 -> (
                match int_of_string_opt (String.sub rest 0 sp2) with
                | Some token ->
                    let req = String.sub rest (sp2 + 1) (String.length rest - sp2 - 1) in
                    send (Printf.sprintf "HB %d" token);
                    let reply, warmth =
                      try handle req
                      with e ->
                        ( Protocol.error_reply ~id:"" ~code:Protocol.Internal
                            (Printexc.to_string e),
                          Handler.Uncached )
                    in
                    send
                      (Printf.sprintf "RES %d %c %s" token (warmth_char warmth)
                         (Worker.one_line reply));
                    loop ()
                | None -> loop ())
            | None -> loop ())
        | _ -> loop ())
  in
  loop ()

(* {2 Parent side} *)

let create ~jobs ~handle =
  let spawn index =
    { index; proc = Worker.spawn (worker_main ~handle); inflight = None }
  in
  { slots = Array.init (max 1 jobs) spawn; handle; respawns = 0 }

let jobs t = Array.length t.slots
let slot_of_key t key = Hashtbl.hash key mod jobs t
let idle t i = t.slots.(i).inflight = None
let respawns t = t.respawns
let pids t = Array.to_list (Array.map (fun s -> s.proc.Worker.pid) t.slots)

let dispatch t ~slot ~token ?kill_after_s line =
  let s = t.slots.(slot) in
  if s.inflight <> None then invalid_arg "Pool.dispatch: slot is busy";
  s.inflight <-
    Some
      {
        token;
        kill_at = Option.map (fun d -> Unix.gettimeofday () +. d) kill_after_s;
      };
  (* a failed write means the worker is already dead: leave the request
     in flight, the reap poll will surface the Died event and respawn *)
  ignore
    (Worker.send s.proc
       ("REQ " ^ string_of_int token ^ " " ^ Worker.one_line line))

let fds t = Array.to_list (Array.map (fun s -> s.proc.Worker.msg) t.slots)

(* A reaped worker's slot: respawn immediately (the daemon's router
   assumes every slot exists) and surface the lost request, if any. *)
let lose t (s : slot) ~timed_out acc =
  let ev =
    match s.inflight with
    | Some { token; _ } ->
        if timed_out then Some (Timed_out { token; slot = s.index })
        else Some (Died { token; slot = s.index })
    | None -> None
  in
  t.respawns <- t.respawns + 1;
  s.proc <- Worker.spawn (worker_main ~handle:t.handle);
  s.inflight <- None;
  match ev with Some e -> e :: acc | None -> acc

let handle_line (s : slot) line acc =
  match String.split_on_char ' ' line with
  | "RES" :: token :: w :: rest -> (
      match (int_of_string_opt token, warmth_of_char w, s.inflight) with
      | Some token, Some warmth, Some { token = t'; _ } when token = t' ->
          s.inflight <- None;
          Reply { token; warmth; line = String.concat " " rest } :: acc
      | _ -> acc (* stale or garbled; the reap poll recovers *))
  | _ -> acc (* HB: draining already recorded the heartbeat *)

let drain t readable =
  let events = ref [] in
  Array.iter
    (fun s ->
      Worker.drain s.proc ~readable (fun line ->
          events := handle_line s line !events);
      if s.proc.Worker.eof then begin
        (* EOF: the worker is gone; reap and respawn right here so the
           slot is usable again without waiting for the next poll *)
        Worker.wait s.proc;
        events := lose t s ~timed_out:false !events
      end)
    t.slots;
  !events

let reap t =
  Array.fold_left
    (fun acc s ->
      match Worker.reap s.proc with
      | None -> acc
      | Some _ -> lose t s ~timed_out:false acc)
    [] t.slots

let kill_overdue t =
  Array.fold_left
    (fun acc s ->
      match s.inflight with
      | Some { kill_at = Some at; _ } when Unix.gettimeofday () > at ->
          Worker.kill s.proc;
          lose t s ~timed_out:true acc
      | _ -> acc)
    [] t.slots

let shutdown t =
  Array.iter
    (fun s ->
      (* a busy worker would only see QUIT after finishing: don't wait *)
      if s.inflight <> None || not (Worker.send s.proc "QUIT") then
        Worker.kill s.proc
      else Worker.wait s.proc)
    t.slots
