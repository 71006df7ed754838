(* A dynamic, fault-tolerant work scheduler over forked workers.

   The parent owns a chunked queue of work-item ranges.  Chunk sizes are
   adaptive (a fraction of the remaining work, "guided self-scheduling"),
   so the queue starts coarse and ends fine — slow items stop creating
   stragglers because no worker is pinned to a fixed slice.

   Workers are {!Specrepair_workers.Worker} processes (fork, pipes, line
   framing, reaping, kill, SIGPIPE guard); this module adds the messages:

     parent -> worker
       CHUNK <id> <i1> <i2> ...   evaluate these work items
       QUIT                       no more work; exit 0

     worker -> parent
       HB <id> <k>                k items of chunk <id> finished (heartbeat)
       DONE <id> <n>              chunk published with n result rows
       ERR <id> <message>         deterministic evaluation error; exiting

   A worker publishes each finished chunk by writing `chunk_<id>.tmp` in
   the run directory and renaming it to `chunk_<id>.res` — the rename is
   atomic, so the parent never observes a torn file.  The file carries
   `R <index> <result>` lines plus `T <line>` sideband lines (telemetry),
   and the parent cross-checks received vs expected row counts before
   keeping the chunk as a shard recorded in the checkpoint manifest (see
   the interface).  Rows never enter parent memory; {!fold_shards} reads
   them back.  A dead or silent worker has its in-flight chunk requeued
   (bounded by [max_retries]) and a replacement is forked. *)

module Counters = Specrepair_json.Counters
module Worker = Specrepair_workers.Worker

type stats = Counters.t

let schema = Counters.schema "scheduler"
let counter = Counters.counter schema

(* chunk assignments sent to workers (requeues included), chunks whose
   result file was merged, and the work items merged *)
let chunks_dispatched = counter "chunks_dispatched"
let chunks_completed = counter "chunks_completed"
let rows_completed = counter "rows_completed"

(* chunk requeues after a worker was lost *)
let retries = counter "retries"

(* forks (respawns included), workers that died or were killed before
   finishing, and those killed by the parent for a silent heartbeat *)
let workers_spawned = counter "workers_spawned"
let workers_lost = counter "workers_lost"
let heartbeat_kills = counter "heartbeat_kills"

exception Chunk_failed of { indices : int list; attempts : int; reason : string }
exception Checkpoint_exists of { dir : string; rows : int }

type chunk = { id : int; lo : int; hi : int; mutable attempts : int }

let chunk_indices c = List.init (c.hi - c.lo) (fun k -> c.lo + k)

type worker = {
  proc : Worker.t;
  mutable inflight : chunk option;
  mutable quitting : bool;  (* QUIT sent; a clean exit is expected *)
}

let now () = Unix.gettimeofday ()

let res_path dir id = Filename.concat dir (Printf.sprintf "chunk_%d.res" id)

let shard_path dir ~lo ~hi =
  Filename.concat dir (Printf.sprintf "shard_%d_%d.res" lo hi)

(* {2 Worker side} *)

(* Test-only fault injection: with SPECREPAIR_SCHED_KILL_ITEM=<i> and
   SPECREPAIR_SCHED_KILL_MARK=<path>, the first worker to reach item <i>
   creates <path> and SIGKILLs itself — a deterministic stand-in for
   `kill -9` mid-run (the marker makes it a one-shot, so the retry
   completes).  Unset in normal operation. *)
let chaos_kill () =
  match
    ( Sys.getenv_opt "SPECREPAIR_SCHED_KILL_ITEM",
      Sys.getenv_opt "SPECREPAIR_SCHED_KILL_MARK" )
  with
  | Some item, Some mark when mark <> "" ->
      Option.map (fun k -> (k, mark)) (int_of_string_opt item)
  | _ -> None

(* Test-only crash injection for the checkpointed mode: with
   SPECREPAIR_SCHED_CRASH_AFTER_CHUNKS=<k>, the *parent* SIGKILLs its own
   process group the moment the k-th chunk of this run has been verified
   and checkpointed — the deterministic stand-in for the machine (or the
   operator) killing a long study mid-flight, which [~resume] must then
   recover from.  Unset in normal operation. *)
let chaos_crash_after () =
  Option.bind
    (Sys.getenv_opt "SPECREPAIR_SCHED_CRASH_AFTER_CHUNKS")
    int_of_string_opt

let child_main ~dir ~f ~recv ~send =
  let chaos = chaos_kill () in
  let run_chunk id indices =
    let tmp = Filename.concat dir (Printf.sprintf "chunk_%d.tmp" id) in
    let oc = open_out tmp in
    let finished = ref 0 in
    List.iter
      (fun i ->
        (match chaos with
        | Some (k, mark) when k = i && not (Sys.file_exists mark) ->
            (try close_out (open_out mark) with Sys_error _ -> ());
            Unix.kill (Unix.getpid ()) Sys.sigkill
        | _ -> ());
        let emit line = output_string oc ("T " ^ Worker.one_line line ^ "\n") in
        let r = f ~emit i in
        if String.contains r '\n' then
          failwith (Printf.sprintf "Scheduler: result for item %d spans lines" i);
        output_string oc (Printf.sprintf "R %d %s\n" i r);
        incr finished;
        send (Printf.sprintf "HB %d %d" id !finished))
      indices;
    close_out oc;
    Sys.rename tmp (res_path dir id);
    send (Printf.sprintf "DONE %d %d" id !finished)
  in
  let rec loop () =
    match recv () with
    | None | Some "QUIT" -> ()
    | Some line -> (
        match String.split_on_char ' ' line with
        | "CHUNK" :: id :: indices -> (
            let id = int_of_string id in
            let indices = List.map int_of_string indices in
            match run_chunk id indices with
            | () -> loop ()
            | exception e ->
                (* a deterministic failure: retrying would repeat it, so
                   report and die rather than burn the retry budget *)
                send
                  (Printf.sprintf "ERR %d %s" id
                     (Worker.one_line (Printexc.to_string e)));
                Unix._exit 3)
        | _ -> ())
  in
  loop ()

(* {2 Result files} *)

(* Parse a chunk/shard file into its rows and telemetry sideband.  [None]
   on a missing, torn or garbled file — the caller recomputes (merge
   paths) or fails loudly (resume validation). *)
let parse_res_file ~max_index path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic -> (
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let rows = ref [] and tlines = ref [] and bad = ref false in
      List.iter
        (fun line ->
          if line = "" then ()
          else if String.length line > 2 && String.sub line 0 2 = "T " then
            tlines := String.sub line 2 (String.length line - 2) :: !tlines
          else if String.length line > 2 && String.sub line 0 2 = "R " then begin
            let rest = String.sub line 2 (String.length line - 2) in
            match String.index_opt rest ' ' with
            | Some sp -> (
                match int_of_string_opt (String.sub rest 0 sp) with
                | Some i when i >= 0 && i < max_index ->
                    rows :=
                      (i, String.sub rest (sp + 1) (String.length rest - sp - 1))
                      :: !rows
                | _ -> bad := true)
            | None -> bad := true
          end
          else bad := true)
        (String.split_on_char '\n' text);
      if !bad then None else Some (List.rev !rows, List.rev !tlines))

(* Do [rows] cover exactly [lo, hi), each index once? *)
let rows_cover ~lo ~hi rows =
  List.length rows = hi - lo
  && List.for_all (fun i -> List.mem_assoc i rows) (List.init (hi - lo) (fun k -> lo + k))

(* {2 Parent side} *)

(* OCaml numbers the signals it knows with its own negative constants;
   a signal it does not know keeps its system number. *)
let signal_to_string n =
  match
    List.assoc_opt n
      Sys.
        [
          (sigabrt, "SIGABRT"); (sigalrm, "SIGALRM"); (sigbus, "SIGBUS");
          (sigfpe, "SIGFPE"); (sighup, "SIGHUP"); (sigill, "SIGILL");
          (sigint, "SIGINT"); (sigkill, "SIGKILL"); (sigpipe, "SIGPIPE");
          (sigquit, "SIGQUIT"); (sigsegv, "SIGSEGV"); (sigstop, "SIGSTOP");
          (sigterm, "SIGTERM"); (sigtstp, "SIGTSTP"); (sigxcpu, "SIGXCPU");
        ]
  with
  | Some name -> name
  | None -> Printf.sprintf "signal %d" n

let status_to_string = function
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED n -> "killed by " ^ signal_to_string n
  | Unix.WSTOPPED n -> "stopped by " ^ signal_to_string n

(* Verify that the shard backing a completed range still parses and
   covers exactly its rows; anything less means the checkpoint lies. *)
let verify_shard ~dir ~total (lo, hi) =
  let path = shard_path dir ~lo ~hi in
  match parse_res_file ~max_index:total path with
  | None ->
      raise
        (Manifest.Corrupt
           (Printf.sprintf
              "manifest records [%d, %d) complete but %s is missing or torn" lo
              hi path))
  | Some (rows, _) ->
      if not (rows_cover ~lo ~hi rows) then
        raise
          (Manifest.Corrupt
             (Printf.sprintf "%s does not cover its recorded range [%d, %d)"
                path lo hi))

(* Leftover chunk files (a crash between a worker's rename and the
   parent's checkpoint) are recomputed, never trusted. *)
let sweep_stray_chunks dir =
  Array.iter
    (fun f ->
      if String.length f >= 6 && String.sub f 0 6 = "chunk_" then
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir)

(* The run's starting manifest: the validated checkpoint on [~resume],
   otherwise a fresh one — refused over a directory that already holds
   completed rows. *)
let open_manifest ~resume ~dir ~fingerprint n =
  if resume then begin
    let m = Manifest.load ~dir in
    if m.Manifest.fingerprint <> fingerprint then
      raise
        (Manifest.Corrupt
           (Printf.sprintf
              "run parameters changed: manifest fingerprint %S, expected %S"
              m.Manifest.fingerprint fingerprint));
    if m.Manifest.total <> n then
      raise
        (Manifest.Corrupt
           (Printf.sprintf "manifest total %d, expected %d" m.Manifest.total
              n));
    List.iter (verify_shard ~dir ~total:n) m.Manifest.completed;
    m
  end
  else begin
    (match Manifest.load ~dir with
    | exception Manifest.Corrupt _ -> ()
    | m when Manifest.rows_done m > 0 ->
        raise (Checkpoint_exists { dir; rows = Manifest.rows_done m })
    | _ -> ());
    let m = Manifest.create ~fingerprint ~total:n in
    Manifest.save ~dir m;
    m
  end

let map_checkpointed ~jobs ?(max_retries = 2) ?(heartbeat_timeout_ms = 300_000.)
    ?(progress = fun _ -> ()) ?(emit = fun _ -> ()) ?(resume = false) ~dir
    ~fingerprint ~f n =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let manifest = ref (open_manifest ~resume ~dir ~fingerprint n) in
  if resume then
    progress
      (Printf.sprintf "resuming: %d/%d rows already checkpointed"
         (Manifest.rows_done !manifest) n);
  sweep_stray_chunks dir;
  let crash_after = chaos_crash_after () in
  let stats = Counters.create schema in
  let pending = Manifest.pending !manifest in
  let todo = List.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 pending in
  if todo = 0 then stats
  else begin
    let jobs = max 1 (min jobs todo) in
    let started = now () in
    (* the work queue: a list of pending ranges plus requeued chunks *)
    let ranges = ref pending in
    let remaining = ref todo in
    let next_id = ref 0 in
    let requeued : chunk Queue.t = Queue.create () in
    let pending_work () = (not (Queue.is_empty requeued)) || !ranges <> [] in
    let next_chunk () =
      if not (Queue.is_empty requeued) then Some (Queue.pop requeued)
      else
        match !ranges with
        | [] -> None
        | (lo, hi) :: rest ->
            (* guided self-scheduling: a fraction of the remaining work,
               capped so a CHUNK message stays a short pipe write and a
               lost worker forfeits a bounded amount of recompute *)
            let size =
              min (hi - lo) (min 512 (max 1 (!remaining / (jobs * 2))))
            in
            ranges := if lo + size < hi then (lo + size, hi) :: rest else rest;
            remaining := !remaining - size;
            let id = !next_id in
            incr next_id;
            Some { id; lo; hi = lo + size; attempts = 0 }
    in
    let requeue_chunk ~reason (c : chunk) =
      c.attempts <- c.attempts + 1;
      Counters.incr stats retries;
      if c.attempts > max_retries then
        raise
          (Chunk_failed { indices = chunk_indices c; attempts = c.attempts; reason })
      else begin
        progress
          (Printf.sprintf "requeueing chunk %d, attempt %d/%d (%s)" c.id
             (c.attempts + 1) (max_retries + 1) reason);
        Queue.push c requeued
      end
    in
    let workers : (int, worker) Hashtbl.t = Hashtbl.create jobs in
    let live_workers () = Hashtbl.fold (fun _ w acc -> w :: acc) workers [] in
    let spawn () =
      let proc = Worker.spawn (child_main ~dir ~f) in
      Counters.incr stats workers_spawned;
      let w = { proc; inflight = None; quitting = false } in
      Hashtbl.replace workers proc.pid w;
      w
    in
    let assign w =
      match next_chunk () with
      | Some c ->
          w.inflight <- Some c;
          Counters.incr stats chunks_dispatched;
          (* a failed write means the worker is already dead; the reap
             poll will requeue the chunk *)
          ignore
            (Worker.send w.proc
               (Printf.sprintf "CHUNK %d %s" c.id
                  (String.concat " " (List.map string_of_int (chunk_indices c)))))
      | None ->
          w.quitting <- true;
          ignore (Worker.send w.proc "QUIT")
    in
    (* Remove a reaped [w] from the pool; requeue its in-flight chunk.
       Reaping closed the message pipe, so a DONE the dead worker managed
       to send can never merge a chunk that is also being recomputed. *)
    let retire w ~lost ~reason =
      Hashtbl.remove workers w.proc.pid;
      if lost then Counters.incr stats workers_lost;
      match w.inflight with
      | Some c ->
          w.inflight <- None;
          requeue_chunk ~reason c
      | None -> ()
    in
    let merged = ref 0 in
    let merge_chunk w (c : chunk) ~reported =
      let path = res_path dir c.id in
      let parsed = parse_res_file ~max_index:n path in
      match parsed with
      | Some (rows, tlines)
        when reported = List.length rows && rows_cover ~lo:c.lo ~hi:c.hi rows ->
          (* shard first, checkpoint second: the manifest only ever vouches
             for a shard that is already in place *)
          Sys.rename path (shard_path dir ~lo:c.lo ~hi:c.hi);
          manifest := Manifest.add !manifest ~lo:c.lo ~hi:c.hi;
          Manifest.save ~dir !manifest;
          Counters.incr stats chunks_completed;
          (match crash_after with
          | Some k when Counters.get stats chunks_completed >= k ->
              Unix.kill (Unix.getpid ()) Sys.sigkill
          | _ -> ());
          List.iter emit tlines;
          merged := !merged + List.length rows;
          Counters.add stats rows_completed (List.length rows);
          let elapsed = now () -. started in
          let rate = float_of_int !merged /. max 1e-9 elapsed in
          let eta = float_of_int (todo - !merged) /. max 1e-9 rate in
          progress
            (Printf.sprintf
               "%d/%d rows done (chunk %d, %d rows, worker %d; %.1f rows/s, \
                ETA %.0fs)"
               !merged todo c.id (List.length rows) w.proc.pid rate eta)
      | _ ->
          (* expected vs received cross-check failed: the file is missing,
             torn, or short a row — recompute the chunk *)
          (try Sys.remove path with Sys_error _ -> ());
          requeue_chunk
            ~reason:
              (Printf.sprintf "chunk %d: result rows do not match the %d expected"
                 c.id (c.hi - c.lo))
            c
    in
    let handle_line w line =
      match String.split_on_char ' ' line with
      | [ "DONE"; id; nrows ] -> (
          match w.inflight with
          | Some c
            when int_of_string_opt id = Some c.id
                 && Option.is_some (int_of_string_opt nrows) ->
              w.inflight <- None;
              merge_chunk w c ~reported:(int_of_string nrows);
              assign w
          | _ -> () (* stale or garbled; the poll paths recover *))
      | "ERR" :: id :: rest ->
          let indices, attempts =
            match w.inflight with
            | Some c when int_of_string_opt id = Some c.id ->
                (chunk_indices c, c.attempts + 1)
            | _ -> ([], 1)
          in
          raise
            (Chunk_failed
               { indices; attempts; reason = "worker error: " ^ String.concat " " rest })
      | _ -> () (* HB: draining already recorded the heartbeat *)
    in
    (* a run ending in an exception leaves no worker and no chunk file *)
    let cleanup () =
      List.iter (fun w -> Worker.kill w.proc) (live_workers ());
      Hashtbl.reset workers;
      sweep_stray_chunks dir
    in
    Worker.with_sigpipe_ignored @@ fun () ->
    Fun.protect ~finally:cleanup (fun () ->
        while !merged < todo do
          (* keep the pool at strength while there is queued work; [assign]
             immediately hands each fresh worker a chunk *)
          while
            pending_work ()
            && List.length
                 (List.filter (fun w -> not w.quitting) (live_workers ()))
               < jobs
          do
            assign (spawn ())
          done;
          (* 1. messages: heartbeats, completions, errors *)
          let ready =
            Worker.select (List.map (fun w -> w.proc) (live_workers ())) 0.05
          in
          List.iter
            (fun w -> Worker.drain w.proc ~readable:ready (handle_line w))
            (live_workers ());
          (* 2. death poll: reap exited workers, requeue their chunks *)
          List.iter
            (fun w ->
              match Worker.reap w.proc with
              | None -> ()
              | Some status ->
                  retire w
                    ~lost:(not (w.quitting && w.inflight = None))
                    ~reason:
                      (Printf.sprintf "worker %d %s" w.proc.pid
                         (status_to_string status)))
            (live_workers ());
          (* 3. heartbeat: a worker that holds a chunk but has gone silent
             is presumed hung; kill it and recompute the chunk *)
          List.iter
            (fun w ->
              if
                w.inflight <> None
                && Worker.stale w.proc ~timeout:(heartbeat_timeout_ms /. 1000.)
              then begin
                Counters.incr stats heartbeat_kills;
                Worker.kill w.proc;
                retire w ~lost:true
                  ~reason:
                    (Printf.sprintf "worker %d silent for %.0f ms" w.proc.pid
                       heartbeat_timeout_ms)
              end)
            (live_workers ())
        done;
        (* all rows merged: release the pool *)
        List.iter
          (fun w ->
            if not w.quitting then ignore (Worker.send w.proc "QUIT");
            Worker.wait w.proc)
          (live_workers ());
        Hashtbl.reset workers;
        stats)
  end

let fold_shards ~dir f acc =
  let m = Manifest.load ~dir in
  if not (Manifest.is_complete m) then
    failwith
      (Printf.sprintf
         "Scheduler.fold_shards: run in %s is incomplete (%d/%d rows); resume \
          it first"
         dir (Manifest.rows_done m) m.Manifest.total);
  List.fold_left
    (fun acc (lo, hi) ->
      verify_shard ~dir ~total:m.Manifest.total (lo, hi);
      match parse_res_file ~max_index:m.Manifest.total (shard_path dir ~lo ~hi) with
      | None -> assert false (* verify_shard just accepted it *)
      | Some (rows, _) ->
          (* one shard (≤ 512 rows) in memory at a time *)
          let in_order = List.sort (fun (a, _) (b, _) -> compare a b) rows in
          List.fold_left (fun acc (i, r) -> f acc i r) acc in_order)
    acc m.Manifest.completed

(* "rows 0–53", "row 7" or "rows 1–2, 5": runs of consecutive indices
   as ranges *)
let rows_to_string indices =
  let rec runs = function
    | [] -> []
    | i :: rest -> (
        match runs rest with
        | (lo, hi) :: tl when lo = i + 1 -> (i, hi) :: tl
        | rs -> (i, i) :: rs)
  in
  let run (lo, hi) =
    if lo = hi then string_of_int lo else Printf.sprintf "%d\u{2013}%d" lo hi
  in
  match indices with
  | [] -> "no known rows"
  | [ i ] -> "row " ^ string_of_int i
  | _ -> "rows " ^ String.concat ", " (List.map run (runs indices))

let () =
  Printexc.register_printer (function
    | Chunk_failed { indices; attempts; reason } ->
        Some
          (Printf.sprintf "Scheduler.Chunk_failed: %s failed after %d attempt(s): %s"
             (rows_to_string indices) attempts reason)
    | _ -> None)
