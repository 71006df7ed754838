(* The serving worker pool.  Workers are {!Specrepair_workers.Worker}
   processes (fork, pipes, line framing, reaping, kill); this module adds
   the REQ/QUIT and RES messages and the daemon's policy: workers are
   long-lived and sticky (warm caches accrue per slot), requests are
   individually dispatched rather than chunked, and a lost worker fails
   exactly its in-flight request — the daemon turns that into one error
   reply, never a retry (repair requests are not idempotent in wall-clock
   cost).  A REQ carries the registry keys the daemon's reply memo
   answered since the slot's last request, and a RES the keys the
   worker's registry evicted, so the memo can mirror the registry
   ({!Replies}).  Keys are hex digests, so a comma joins them and ["-"]
   stands for none. *)

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
  handle : touched:string list -> string -> string * Handler.warmth * string list;
  mutable respawns : int;
}

type event =
  | Reply of {
      token : int;
      slot : int;
      warmth : Handler.warmth;
      evicted : string list;
      line : string;
    }
  | Died of { token : int; slot : int }
  | Timed_out of { token : int; slot : int }
  | Respawned of { slot : int }

let warmth_char = function
  | Handler.Warm -> 'W'
  | Handler.Cold -> 'C'
  | Handler.Uncached -> 'U'

let warmth_of_char = function
  | "W" -> Some Handler.Warm
  | "C" -> Some Handler.Cold
  | "U" -> Some Handler.Uncached
  | _ -> None

let keys_field = function [] -> "-" | keys -> String.concat "," keys
let keys_of_field = function "-" -> [] | field -> String.split_on_char ',' field

(* [fields line n] splits the first [n] space-separated fields off [line]
   and returns them with the rest, which may hold spaces *)
let fields line n =
  let rec go from k acc =
    if k = 0 then Some (List.rev acc, String.sub line from (String.length line - from))
    else
      match String.index_from_opt line from ' ' with
      | Some sp -> go (sp + 1) (k - 1) (String.sub line from (sp - from) :: acc)
      | None -> None
  in
  go 0 n []

(* {2 Worker side} *)

let worker_main ~handle ~recv ~send =
  (* the daemon's signal discipline must not leak into workers: a SIGTERM
     aimed at the daemon is handled there, workers are killed explicitly *)
  (try Sys.set_signal Sys.sigterm Sys.Signal_default with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint Sys.Signal_default with Invalid_argument _ -> ());
  let rec loop () =
    match recv () with
    | None | Some "QUIT" -> ()
    | Some line ->
        (match fields line 3 with
        | Some ([ "REQ"; token; touched ], req) when int_of_string_opt token <> None ->
            let reply, warmth, evicted =
              try handle ~touched:(keys_of_field touched) req
              with e ->
                ( Protocol.error_reply ~id:"" ~code:Protocol.Internal
                    (Printexc.to_string e),
                  Handler.Uncached,
                  [] )
            in
            send
              (String.concat " "
                 [
                   "RES";
                   token;
                   String.make 1 (warmth_char warmth);
                   keys_field evicted;
                   Worker.one_line reply;
                 ])
        | _ -> ());
        loop ()
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

let dispatch t ~slot ~token ?kill_after_s ?(touched = []) line =
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
       (String.concat " "
          [ "REQ"; string_of_int token; keys_field touched; Worker.one_line line ]))

let fds t = Array.to_list (Array.map (fun s -> s.proc.Worker.msg) t.slots)

(* A reaped worker's slot: respawn immediately (the daemon's router
   assumes every slot exists) and surface the lost request, if any, and
   the respawn, newest first like [acc]. *)
let lose t (s : slot) ~timed_out acc =
  let acc =
    match s.inflight with
    | Some { token; _ } when timed_out -> Timed_out { token; slot = s.index } :: acc
    | Some { token; _ } -> Died { token; slot = s.index } :: acc
    | None -> acc
  in
  t.respawns <- t.respawns + 1;
  s.proc <- Worker.spawn (worker_main ~handle:t.handle);
  s.inflight <- None;
  Respawned { slot = s.index } :: acc

let handle_line (s : slot) line acc =
  match (fields line 4, s.inflight) with
  | Some ([ "RES"; token; w; evicted ], line), Some { token = t'; _ }
    when int_of_string_opt token = Some t' -> (
      match warmth_of_char w with
      | Some warmth ->
          s.inflight <- None;
          Reply
            { token = t'; slot = s.index; warmth; evicted = keys_of_field evicted; line }
          :: acc
      | None -> acc)
  | _ -> acc (* stale or garbled; the reap poll recovers *)

(* Events come out in the order they happened, so a slot's last reply
   is taken in before the respawn that follows it. *)
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
  List.rev !events

let reap t =
  Array.fold_left
    (fun acc s ->
      match Worker.reap s.proc with
      | None -> acc
      | Some _ -> lose t s ~timed_out:false acc)
    [] t.slots
  |> List.rev

let kill_overdue t =
  Array.fold_left
    (fun acc s ->
      match s.inflight with
      | Some { kill_at = Some at; _ } when Unix.gettimeofday () > at ->
          Worker.kill s.proc;
          lose t s ~timed_out:true acc
      | _ -> acc)
    [] t.slots
  |> List.rev

let shutdown t =
  Array.iter
    (fun s ->
      (* a busy worker would only see QUIT after finishing: don't wait *)
      if s.inflight <> None || not (Worker.send s.proc "QUIT") then
        Worker.kill s.proc
      else Worker.wait s.proc)
    t.slots
