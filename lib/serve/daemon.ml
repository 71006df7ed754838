(* The serve daemon: accept loop, request router, reply memo, admission
   control and counters.  See daemon.mli for the semantics; the protocol
   lives in protocol.ml, the memo in replies.ml, the execution in
   handler.ml (worker side), the process supervision in pool.ml. *)

module Worker = Specrepair_workers.Worker
module Json = Specrepair_json
module Counters = Json.Counters

type config = {
  socket : string option;
  tcp : int option;
  workers : int;
  max_sessions : int;
  max_inflight : int;
  queue_depth : int;
  max_request_bytes : int;
  hard_timeout_ms : float option;
  telemetry : string option;
}

let default_config =
  {
    socket = None;
    tcp = None;
    workers = 2;
    max_sessions = 32;
    max_inflight = 64;
    queue_depth = 64;
    max_request_bytes = 8 * 1024 * 1024;
    hard_timeout_ms = None;
    telemetry = None;
  }

type client = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  outbuf : Buffer.t;
  mutable close_after_flush : bool;
}

type inflight = {
  origin : Unix.file_descr option;
  req_id : string;
  meth : string;
  t0 : float;
  memo_key : Replies.key option;
}

type pending = {
  p_token : int;
  p_slot : int;
  p_line : string;
  p_kill_after_s : float option;
  p_origin : Unix.file_descr;
}

(* The daemon's counters, in the order [status] prints them; the shutdown
   record leaves out the two levels [inflight] and [queued].  Requests by
   method are keyed by the method's name, so they stay a table. *)
module Count = struct
  let schema = Counters.schema "daemon"
  let counter = Counters.counter schema
  let requests = counter "requests"
  let ok = counter "ok"
  let errors = counter "errors"
  let overloaded = counter "overloaded"
  let cache_hits = counter "cache_hits"
  let cache_misses = counter "cache_misses"
  let replies_reused = counter "replies_reused"
  let worker_respawns = counter "worker_respawns"
  let inflight = Counters.gauge schema "inflight"
  let queued = Counters.gauge schema "queued"
  let queue_high_water = Counters.gauge schema "queue_high_water"
end

let run config =
  let counts = Counters.create Count.schema in
  let count key = Counters.incr counts key in
  let by_method = Hashtbl.create 8 in
  let count_method meth =
    Hashtbl.replace by_method meth
      (1 + Option.value (Hashtbl.find_opt by_method meth) ~default:0)
  in
  let started = Unix.gettimeofday () in
  let telemetry_oc =
    Option.map
      (fun path -> open_out_gen [ Open_append; Open_creat ] 0o644 path)
      config.telemetry
  in
  let telemetry fields =
    match telemetry_oc with
    | None -> ()
    | Some oc ->
        output_string oc (Json.to_string (Json.Obj fields));
        output_char oc '\n';
        flush oc
  in

  (* {2 Listeners} *)
  let listeners = ref [] in
  (match config.socket with
  | Some path ->
      if Sys.file_exists path then (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.bind fd (Unix.ADDR_UNIX path)
       with Unix.Unix_error (e, _, _) ->
         failwith
           (Printf.sprintf "serve: cannot bind %s: %s" path (Unix.error_message e)));
      Unix.listen fd 64;
      listeners := fd :: !listeners
  | None -> ());
  (match config.tcp with
  | Some port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      (try Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
       with Unix.Unix_error (e, _, _) ->
         failwith
           (Printf.sprintf "serve: cannot bind 127.0.0.1:%d: %s" port
              (Unix.error_message e)));
      Unix.listen fd 64;
      listeners := fd :: !listeners
  | None -> ());
  if !listeners = [] then failwith "serve: no listener configured (--socket or --tcp)";

  (* {2 Worker pool and reply memo} *)
  let handler = Handler.create ~max_sessions:config.max_sessions () in
  let pool = Pool.create ~jobs:config.workers ~handle:(Handler.serve handler) in
  let memo =
    Replies.create
      ~no_cache:(Sys.getenv_opt "SPECREPAIR_NO_CACHE" = Some "1")
      ~slots:(Pool.jobs pool)
  in

  (* {2 State} *)
  let clients : (Unix.file_descr, client) Hashtbl.t = Hashtbl.create 16 in
  let inflight : (int, inflight) Hashtbl.t = Hashtbl.create 16 in
  let pending : pending list ref = ref [] in
  let next_token = ref 0 in
  let stop = ref false in

  let old_term =
    try Some (Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true)))
    with Invalid_argument _ | Sys_error _ -> None
  in
  let old_int =
    try Some (Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true)))
    with Invalid_argument _ | Sys_error _ -> None
  in
  let restore_signals () =
    let restore signum = function
      | Some h -> ( try Sys.set_signal signum h with Invalid_argument _ -> ())
      | None -> ()
    in
    restore Sys.sigterm old_term;
    restore Sys.sigint old_int
  in
  (* replies go to client sockets that may close under the daemon *)
  Worker.with_sigpipe_ignored @@ fun () ->

  (* {2 Client plumbing} *)
  let close_client c =
    Hashtbl.remove clients c.fd;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let try_flush c =
    let text = Buffer.contents c.outbuf in
    let len = String.length text in
    if len > 0 then begin
      match Unix.write c.fd (Bytes.of_string text) 0 len with
      | written ->
          Buffer.clear c.outbuf;
          if written < len then
            Buffer.add_substring c.outbuf text written (len - written)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
          close_client c
    end;
    if Hashtbl.mem clients c.fd && c.close_after_flush && Buffer.length c.outbuf = 0
    then close_client c
  in
  let send_to_fd fd line =
    match Hashtbl.find_opt clients fd with
    | None -> () (* the client disconnected mid-request; drop the reply *)
    | Some c ->
        Buffer.add_string c.outbuf line;
        Buffer.add_char c.outbuf '\n';
        try_flush c
  in

  (* {2 Routing} *)
  let record_reply ~token ~okay ~answer =
    match Hashtbl.find_opt inflight token with
    | None -> None
    | Some entry ->
        Hashtbl.remove inflight token;
        count (if okay then Count.ok else Count.errors);
        (* a memo hit is also a registry hit, so hits + misses stays the
           number of answered spec requests *)
        (match answer with
        | Some (Replies.Worker Handler.Warm) -> count Count.cache_hits
        | Some Replies.Memo ->
            count Count.cache_hits;
            count Count.replies_reused
        | Some (Replies.Worker Handler.Cold) -> count Count.cache_misses
        | Some (Replies.Worker Handler.Uncached) | None -> ());
        telemetry
          [
            ("event", Json.Str "reply");
            ("method", Json.Str entry.meth);
            ("id", Json.Str entry.req_id);
            ("ok", Json.Bool okay);
            ( "warm",
              match answer with
              | Some (Replies.Worker Handler.Warm | Replies.Memo) -> Json.Bool true
              | Some (Replies.Worker Handler.Cold) -> Json.Bool false
              | _ -> Json.Null );
            ("ms", Json.Num ((Unix.gettimeofday () -. entry.t0) *. 1000.));
          ];
        Some entry
  in
  (* [slot] is idle: answer a stored repair from the memo, or send the
     request to the worker with the touches the memo queued for it *)
  let dispatch ~slot ~token ~kill_after_s line =
    let hit =
      match Hashtbl.find_opt inflight token with
      | Some { req_id; memo_key = Some key; _ } ->
          Replies.find memo ~slot ~id:req_id key
      | _ -> None
    in
    match hit with
    | Some reply -> (
        match record_reply ~token ~okay:true ~answer:(Some Replies.Memo) with
        | Some { origin = Some fd; _ } -> send_to_fd fd reply
        | Some { origin = None; _ } | None -> ())
    | None ->
        Pool.dispatch pool ~slot ~token ?kill_after_s
          ~touched:(Replies.touched memo ~slot) line
  in
  (* dispatch the oldest queued entry whose sticky slot is idle, then
     rescan: freeing one slot can unblock several queued keys *)
  let pump_queue () =
    let rec take acc = function
      | [] -> None
      | p :: rest ->
          if Pool.idle pool p.p_slot then begin
            pending := List.rev_append acc rest;
            Some p
          end
          else take (p :: acc) rest
    in
    let rec go () =
      match take [] !pending with
      | None -> ()
      | Some p ->
          dispatch ~slot:p.p_slot ~token:p.p_token ~kill_after_s:p.p_kill_after_s
            p.p_line;
          go ()
    in
    go ()
  in
  (* the levels kept elsewhere, read into [counts] before it is printed *)
  let read_levels () =
    Counters.set counts Count.worker_respawns (Pool.respawns pool);
    Counters.set counts Count.inflight (Hashtbl.length inflight);
    Counters.set counts Count.queued (List.length !pending)
  in
  let status_reply ~id =
    let by_method =
      Hashtbl.fold (fun k v acc -> (k, Json.int v) :: acc) by_method []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    read_levels ();
    Protocol.ok_reply ~id
      (Json.Obj
         ([
            ("uptime_ms", Json.Num ((Unix.gettimeofday () -. started) *. 1000.));
            ("workers", Json.int (Pool.jobs pool));
          ]
         @ Counters.fields counts
         @ [ ("by_method", Json.Obj by_method) ]))
  in
  let handle_request c line =
    count Count.requests;
    match Protocol.parse_request line with
    | Error reply ->
        count Count.errors;
        count_method "invalid";
        send_to_fd c.fd reply
    | Ok { id; call } -> (
        let meth = Protocol.method_name call in
        count_method meth;
        match call with
        | Protocol.Status ->
            count Count.ok;
            send_to_fd c.fd (status_reply ~id)
        | _ ->
            let key = Option.get (Protocol.cache_key call) in
            let slot = Pool.slot_of_key pool key in
            let memo_key = Replies.key ~entry:key call in
            let deadline_ms =
              match call with
              | Protocol.Repair p -> p.Protocol.deadline_ms
              | Protocol.Evaluate p -> p.Protocol.e_deadline_ms
              | _ -> None
            in
            let kill_after_s =
              match deadline_ms with
              | Some d -> Some (((3. *. d) +. 2000.) /. 1000.)
              | None -> Option.map (fun ms -> ms /. 1000.) config.hard_timeout_ms
            in
            let accepted = Hashtbl.length inflight + List.length !pending in
            if accepted >= config.max_inflight then begin
              count Count.overloaded;
              count Count.errors;
              send_to_fd c.fd
                (Protocol.error_reply ~id ~code:Protocol.Overloaded
                   (Printf.sprintf "%d request(s) already in flight" accepted))
            end
            else begin
              let token = !next_token in
              incr next_token;
              Hashtbl.replace inflight token
                {
                  origin = Some c.fd;
                  req_id = id;
                  meth;
                  t0 = Unix.gettimeofday ();
                  memo_key;
                };
              if Pool.idle pool slot then
                dispatch ~slot ~token ~kill_after_s line
              else if List.length !pending >= config.queue_depth then begin
                Hashtbl.remove inflight token;
                count Count.overloaded;
                count Count.errors;
                send_to_fd c.fd
                  (Protocol.error_reply ~id ~code:Protocol.Overloaded
                     (Printf.sprintf "queue full (%d waiting)" (List.length !pending)))
              end
              else begin
                pending :=
                  !pending
                  @ [
                      {
                        p_token = token;
                        p_slot = slot;
                        p_line = line;
                        p_kill_after_s = kill_after_s;
                        p_origin = c.fd;
                      };
                    ];
                Counters.max counts Count.queue_high_water
                  (List.length !pending)
              end
            end)
  in
  let process_inbuf c =
    let rec go () =
      let text = Buffer.contents c.inbuf in
      match String.index_opt text '\n' with
      | Some i ->
          Buffer.clear c.inbuf;
          Buffer.add_substring c.inbuf text (i + 1) (String.length text - i - 1);
          let line = String.sub text 0 i in
          if String.length line > config.max_request_bytes then begin
            count Count.requests;
            count Count.errors;
            send_to_fd c.fd
              (Protocol.error_reply ~id:"" ~code:Protocol.Oversized
                 (Printf.sprintf "request line of %d bytes exceeds the %d-byte limit"
                    (String.length line) config.max_request_bytes))
          end
          else if String.trim line <> "" then handle_request c line;
          if Hashtbl.mem clients c.fd then go ()
      | None ->
          if Buffer.length c.inbuf > config.max_request_bytes then begin
            (* an unterminated line already past the limit: answer once,
               then drop the connection — the daemon will not buffer
               unbounded input *)
            count Count.requests;
            count Count.errors;
            Buffer.clear c.inbuf;
            Buffer.add_string c.outbuf
              (Protocol.error_reply ~id:"" ~code:Protocol.Oversized
                 (Printf.sprintf "request exceeds the %d-byte limit"
                    config.max_request_bytes));
            Buffer.add_char c.outbuf '\n';
            c.close_after_flush <- true;
            try_flush c
          end
    in
    go ()
  in
  (* one read buffer for every client: the loop reads one at a time *)
  let buf = Bytes.create 65536 in
  let read_client c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error ((ECONNRESET | EBADF), _, _) -> close_client c
    | 0 -> close_client c
    | k ->
        Buffer.add_subbytes c.inbuf buf 0 k;
        process_inbuf c
  in
  let handle_pool_events events =
    List.iter
      (fun ev ->
        match ev with
        | Pool.Reply { token; slot; warmth; evicted; line } -> (
            let memo_key =
              Option.bind (Hashtbl.find_opt inflight token) (fun e -> e.memo_key)
            in
            Replies.record memo ~slot memo_key warmth ~evicted line;
            match
              record_reply ~token ~okay:(Protocol.reply_is_ok line)
                ~answer:(Some (Replies.Worker warmth))
            with
            | Some { origin = Some fd; _ } -> send_to_fd fd line
            | Some { origin = None; _ } | None -> ())
        | Pool.Died { token; _ } -> (
            match record_reply ~token ~okay:false ~answer:None with
            | Some { origin = Some fd; req_id; _ } ->
                send_to_fd fd
                  (Protocol.error_reply ~id:req_id ~code:Protocol.Worker_crashed
                     "the worker serving this request died; it was respawned")
            | Some { origin = None; _ } | None -> ())
        | Pool.Timed_out { token; _ } -> (
            match record_reply ~token ~okay:false ~answer:None with
            | Some { origin = Some fd; req_id; _ } ->
                send_to_fd fd
                  (Protocol.error_reply ~id:req_id ~code:Protocol.Deadline_exceeded
                     "hard deadline exceeded; the worker was killed")
            | Some { origin = None; _ } | None -> ())
        | Pool.Respawned { slot } -> Replies.clear memo ~slot)
      events;
    if events <> [] then pump_queue ()
  in

  Printf.printf "serve: listening on %s (workers=%d)\n%!"
    (String.concat ", "
       (List.filter_map Fun.id
          [
            config.socket;
            Option.map (Printf.sprintf "127.0.0.1:%d") config.tcp;
          ]))
    (Pool.jobs pool);

  (* {2 The loop} *)
  (try
     while not !stop do
       let client_list = Hashtbl.fold (fun _ c acc -> c :: acc) clients [] in
       let read_fds =
         !listeners @ List.map (fun c -> c.fd) client_list @ Pool.fds pool
       in
       let write_fds =
         List.filter_map
           (fun c -> if Buffer.length c.outbuf > 0 then Some c.fd else None)
           client_list
       in
       let readable, writable, _ =
         try Unix.select read_fds write_fds [] 0.05
         with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
       in
       (* 1. new connections *)
       List.iter
         (fun lfd ->
           if List.mem lfd readable then
             match Unix.accept lfd with
             | fd, _ ->
                 Unix.set_nonblock fd;
                 Hashtbl.replace clients fd
                   {
                     fd;
                     inbuf = Buffer.create 1024;
                     outbuf = Buffer.create 1024;
                     close_after_flush = false;
                   }
             | exception Unix.Unix_error _ -> ())
         !listeners;
       (* 2. client input *)
       List.iter
         (fun c ->
           if List.mem c.fd readable && Hashtbl.mem clients c.fd then read_client c)
         client_list;
       (* 3. worker messages, deaths, overdue kills *)
       handle_pool_events (Pool.drain pool readable);
       handle_pool_events (Pool.reap pool);
       handle_pool_events (Pool.kill_overdue pool);
       (* 4. flush buffered replies *)
       List.iter
         (fun c ->
           if List.mem c.fd writable && Hashtbl.mem clients c.fd then try_flush c)
         client_list
     done
   with e ->
     restore_signals ();
     Pool.shutdown pool;
     raise e);

  (* {2 Shutdown} *)
  List.iter
    (fun p ->
      (match Hashtbl.find_opt inflight p.p_token with
      | Some { req_id; _ } ->
          Hashtbl.remove inflight p.p_token;
          send_to_fd p.p_origin
            (Protocol.error_reply ~id:req_id ~code:Protocol.Shutting_down
               "the daemon is shutting down")
      | None -> ()))
    !pending;
  pending := [];
  Pool.shutdown pool;
  Hashtbl.iter (fun _ c -> try_flush c) clients;
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) clients;
  Hashtbl.reset clients;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !listeners;
  (match config.socket with
  | Some path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | None -> ());
  read_levels ();
  telemetry
    (("event", Json.Str "shutdown")
    :: Counters.fields ~except:[ Count.inflight; Count.queued ] counts);
  Option.iter close_out telemetry_oc;
  restore_signals ();
  Printf.printf "serve: shutdown after %d request(s)\n%!"
    (Counters.get counts Count.requests)
