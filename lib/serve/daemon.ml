(* The serve daemon: accept loop, request router, reply memo, admission
   control and counters.  See daemon.mli for the semantics; the protocol
   lives in protocol.ml, the memo in replies.ml, the execution in
   handler.ml (worker side), the process supervision in pool.ml. *)

module Worker = Specrepair_workers.Worker
module Lines = Specrepair_workers.Lines
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
  inbuf : Lines.t;
  outbuf : Buffer.t;
  mutable close_after_flush : bool;
}

(* An accepted request, from its admission to its answer *)
type request = {
  token : int;
  client : Unix.file_descr;
  id : string;
  meth : string;
  t0 : float;
  memo_key : Replies.key option;
  slot : int;
  line : string;
  kill_after_s : float option;
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
  let listen name domain addr =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
    (try Unix.bind fd addr
     with Unix.Unix_error (e, _, _) ->
       failwith (Printf.sprintf "serve: cannot bind %s: %s" name (Unix.error_message e)));
    Unix.listen fd 64;
    (name, fd)
  in
  let on_socket =
    Option.map
      (fun path ->
        if Sys.file_exists path then (try Unix.unlink path with Unix.Unix_error _ -> ());
        listen path Unix.PF_UNIX (Unix.ADDR_UNIX path))
      config.socket
  in
  let on_tcp =
    Option.map
      (fun port ->
        listen (Printf.sprintf "127.0.0.1:%d" port) Unix.PF_INET
          (Unix.ADDR_INET (Unix.inet_addr_loopback, port)))
      config.tcp
  in
  let named_listeners = List.filter_map Fun.id [ on_socket; on_tcp ] in
  if named_listeners = [] then
    failwith "serve: no listener configured (--socket or --tcp)";
  let listeners = List.map snd named_listeners in

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
  (* every accepted request until it is answered (dispatched + queued),
     and the tokens of the queued ones, oldest first *)
  let requests : (int, request) Hashtbl.t = Hashtbl.create 16 in
  let waiting : int Queue.t = Queue.create () in
  let next_token = ref 0 in
  let stop = ref false in

  let previous_handlers =
    List.filter_map
      (fun signum ->
        try Some (signum, Sys.signal signum (Sys.Signal_handle (fun _ -> stop := true)))
        with Invalid_argument _ | Sys_error _ -> None)
      [ Sys.sigterm; Sys.sigint ]
  in
  let restore_signals () =
    List.iter
      (fun (signum, h) -> try Sys.set_signal signum h with Invalid_argument _ -> ())
      previous_handlers
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
      match Unix.write_substring c.fd text 0 len with
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
  (* The one way an accepted request leaves: counted, logged, and its
     [reply] sent.  [by] is what answered it, [None] for a lost worker. *)
  let answer r ~okay ~by reply =
    Hashtbl.remove requests r.token;
    count (if okay then Count.ok else Count.errors);
    (* a memo hit is also a registry hit, so hits + misses stays the
       number of answered spec requests *)
    let warm =
      match by with
      | Some (Replies.Worker Handler.Warm) ->
          count Count.cache_hits;
          Json.Bool true
      | Some Replies.Memo ->
          count Count.cache_hits;
          count Count.replies_reused;
          Json.Bool true
      | Some (Replies.Worker Handler.Cold) ->
          count Count.cache_misses;
          Json.Bool false
      | Some (Replies.Worker Handler.Uncached) | None -> Json.Null
    in
    telemetry
      [
        ("event", Json.Str "reply");
        ("method", Json.Str r.meth);
        ("id", Json.Str r.id);
        ("ok", Json.Bool okay);
        ("warm", warm);
        ("ms", Json.Num ((Unix.gettimeofday () -. r.t0) *. 1000.));
      ];
    send_to_fd r.client reply
  in
  (* [r]'s slot is idle: answer a stored repair from the memo, or send
     the request to the worker with the touches the memo queued for it *)
  let dispatch r =
    match Option.bind r.memo_key (Replies.find memo ~slot:r.slot ~id:r.id) with
    | Some reply -> answer r ~okay:true ~by:(Some Replies.Memo) reply
    | None ->
        Pool.dispatch pool ~slot:r.slot ~token:r.token ?kill_after_s:r.kill_after_s
          ~touched:(Replies.touched memo ~slot:r.slot)
          r.line
  in
  (* dispatch every queued request whose sticky slot is idle, oldest
     first.  A dispatch never frees a slot, so one pass in arrival order
     picks what rescanning after each dispatch would. *)
  let pump_queue () =
    let still = Queue.create () in
    Queue.iter
      (fun token ->
        let r = Hashtbl.find requests token in
        if Pool.idle pool r.slot then dispatch r else Queue.add token still)
      waiting;
    Queue.clear waiting;
    Queue.transfer still waiting
  in
  (* the levels kept elsewhere, read into [counts] before it is printed *)
  let read_levels () =
    Counters.set counts Count.worker_respawns (Pool.respawns pool);
    Counters.set counts Count.inflight (Hashtbl.length requests);
    Counters.set counts Count.queued (Queue.length waiting)
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
            let kill_after_s =
              match call with
              | Protocol.Repair { deadline_ms = Some d; _ }
              | Protocol.Evaluate { e_deadline_ms = Some d; _ } ->
                  Some (((3. *. d) +. 2000.) /. 1000.)
              | _ -> Option.map (fun ms -> ms /. 1000.) config.hard_timeout_ms
            in
            let accepted = Hashtbl.length requests in
            let refuse message =
              count Count.overloaded;
              count Count.errors;
              send_to_fd c.fd
                (Protocol.error_reply ~id ~code:Protocol.Overloaded message)
            in
            if accepted >= config.max_inflight then
              refuse (Printf.sprintf "%d request(s) already in flight" accepted)
            else if
              (not (Pool.idle pool slot)) && Queue.length waiting >= config.queue_depth
            then refuse (Printf.sprintf "queue full (%d waiting)" (Queue.length waiting))
            else begin
              let r =
                {
                  token = !next_token;
                  client = c.fd;
                  id;
                  meth;
                  t0 = Unix.gettimeofday ();
                  memo_key;
                  slot;
                  line;
                  kill_after_s;
                }
              in
              incr next_token;
              Hashtbl.replace requests r.token r;
              if Pool.idle pool slot then dispatch r
              else begin
                Queue.add r.token waiting;
                Counters.max counts Count.queue_high_water (Queue.length waiting)
              end
            end)
  in
  let oversized c message =
    count Count.requests;
    count Count.errors;
    send_to_fd c.fd (Protocol.error_reply ~id:"" ~code:Protocol.Oversized message)
  in
  let rec take_lines c =
    match Lines.pop c.inbuf with
    | Some line ->
        let n = String.length line in
        if n > config.max_request_bytes then
          oversized c
            (Printf.sprintf "request line of %d bytes exceeds the %d-byte limit" n
               config.max_request_bytes)
        else if String.trim line <> "" then handle_request c line;
        if Hashtbl.mem clients c.fd then take_lines c
    | None ->
        if Lines.pending c.inbuf > config.max_request_bytes then begin
          (* an unterminated line already past the limit: answer once,
             then drop the connection — the daemon will not buffer
             unbounded input *)
          Lines.clear c.inbuf;
          c.close_after_flush <- true;
          oversized c
            (Printf.sprintf "request exceeds the %d-byte limit" config.max_request_bytes)
        end
  in
  (* one read buffer for every client: the loop reads one at a time *)
  let buf = Bytes.create 65536 in
  let read_client c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error ((ECONNRESET | EBADF), _, _) -> close_client c
    | 0 -> close_client c
    | k ->
        Lines.add c.inbuf buf 0 k;
        take_lines c
  in
  (* a request whose worker was lost: answered with an error *)
  let lost token code message =
    Option.iter
      (fun r ->
        answer r ~okay:false ~by:None (Protocol.error_reply ~id:r.id ~code message))
      (Hashtbl.find_opt requests token)
  in
  let handle_pool_events events =
    List.iter
      (fun ev ->
        match ev with
        | Pool.Reply { token; slot; warmth; evicted; line } ->
            let r = Hashtbl.find_opt requests token in
            Replies.record memo ~slot
              (Option.bind r (fun r -> r.memo_key))
              warmth ~evicted line;
            Option.iter
              (fun r ->
                answer r ~okay:(Protocol.reply_is_ok line)
                  ~by:(Some (Replies.Worker warmth)) line)
              r
        | Pool.Died { token; _ } ->
            lost token Protocol.Worker_crashed
              "the worker serving this request died; it was respawned"
        | Pool.Timed_out { token; _ } ->
            lost token Protocol.Deadline_exceeded
              "hard deadline exceeded; the worker was killed"
        | Pool.Respawned { slot } -> Replies.clear memo ~slot)
      events;
    if events <> [] then pump_queue ()
  in

  Printf.printf "serve: listening on %s (workers=%d)\n%!"
    (String.concat ", " (List.map fst named_listeners))
    (Pool.jobs pool);

  (* {2 The loop} *)
  (try
     while not !stop do
       let client_list = Hashtbl.fold (fun _ c acc -> c :: acc) clients [] in
       let read_fds =
         listeners @ List.map (fun c -> c.fd) client_list @ Pool.fds pool
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
                     inbuf = Lines.create ();
                     outbuf = Buffer.create 1024;
                     close_after_flush = false;
                   }
             | exception Unix.Unix_error _ -> ())
         listeners;
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

  (* {2 Shutdown}: the queued requests are answered, and not counted *)
  Queue.iter
    (fun token ->
      let r = Hashtbl.find requests token in
      send_to_fd r.client
        (Protocol.error_reply ~id:r.id ~code:Protocol.Shutting_down
           "the daemon is shutting down"))
    waiting;
  Pool.shutdown pool;
  Hashtbl.iter (fun _ c -> try_flush c) clients;
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) clients;
  Hashtbl.reset clients;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners;
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
