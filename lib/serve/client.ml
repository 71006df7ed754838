(* Serve-protocol client plumbing.  Everything is blocking and
   line-oriented; concurrency comes from [burst], which forks one child
   per request so the daemon genuinely sees overlapping connections. *)

module Worker = Specrepair_workers.Worker
module Lines = Specrepair_workers.Lines

type addr = Unix_sock of string | Tcp of string * int

type conn = { fd : Unix.file_descr; lines : Lines.t }

let connect addr =
  match
    match addr with
    | Unix_sock path ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
    | Tcp (host, port) ->
        let ip =
          try Unix.inet_addr_of_string host
          with Failure _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list = [||]; _ } -> failwith ("no address for " ^ host)
            | h -> h.Unix.h_addr_list.(0))
        in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (ip, port));
        fd
  with
  | fd -> Ok { fd; lines = Lines.create () }
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "connect failed: %s" (Unix.error_message e))
  | exception Failure msg -> Error msg
  | exception Not_found -> Error "host not found"

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send_partial c s =
  try ignore (Unix.write_substring c.fd s 0 (String.length s))
  with Unix.Unix_error _ -> ()

(* one read buffer for every connection: reads are blocking and one at
   a time, and [burst]'s children each have their own copy *)
let scratch = Bytes.create 65536

let read_line c =
  let rec go () =
    match Lines.pop c.lines with
    | Some line -> Ok line
    | None -> (
        match Unix.read c.fd scratch 0 (Bytes.length scratch) with
        | 0 -> Error "connection closed by the daemon"
        | k ->
            Lines.add c.lines scratch 0 k;
            go ()
        | exception Unix.Unix_error (EINTR, _, _) -> go ()
        | exception Unix.Unix_error (e, _, _) ->
            Error (Printf.sprintf "read failed: %s" (Unix.error_message e)))
  in
  go ()

let roundtrip c line =
  match Lines.write c.fd line with
  | () -> read_line c
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "write failed: %s" (Unix.error_message e))

let oneshot addr line =
  match connect addr with
  | Error _ as e -> e
  | Ok c ->
      let r = roundtrip c line in
      close c;
      r

(* One forked child per request: each opens its own connection, performs
   the round-trip, and sends the reply back to the parent as one message
   line, so the daemon sees genuinely concurrent clients. *)
let burst addr lines =
  let children =
    List.map
      (fun line ->
        Worker.spawn (fun ~recv:_ ~send ->
            send
              (match oneshot addr line with
              | Ok reply -> reply
              | Error msg -> "!" ^ msg)))
      lines
  in
  let reply w =
    let got = ref None in
    while !got = None && not w.Worker.eof do
      Worker.drain w ~readable:(Worker.select [ w ] 1.) (fun l -> got := Some l)
    done;
    Worker.wait w;
    match !got with
    | Some line when String.length line > 0 && line.[0] = '!' ->
        Error (String.sub line 1 (String.length line - 1))
    | Some line when line <> "" -> Ok line
    | _ -> Error "no reply from burst child"
  in
  let results = List.map reply children in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | Ok r :: rest -> collect (r :: acc) rest
    | Error msg :: _ -> Error msg
  in
  collect [] results
