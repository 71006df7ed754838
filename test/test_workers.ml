(* Tests for the fork-worker substrate shared by the study scheduler, the
   serve pool and the client's burst: the line framer, line framing over
   pipes, exit statuses, kill -9, heartbeat staleness, descriptor hygiene,
   writes into a dead worker, the SIGPIPE guard, and reads under a
   readable set a respawn made stale. *)

module Worker = Specrepair_workers.Worker
module Lines = Specrepair_workers.Lines

(* A worker that says nothing and exits when its command pipe closes. *)
let silent ~recv ~send:_ = ignore (recv ())

(* Run a test under an alarm: a blocked read fails it instead of hanging. *)
let within f () =
  let previous =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> failwith "blocked"))
  in
  ignore (Unix.alarm 10);
  Fun.protect f ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm previous)

(* Drain [w] until [enough] lines arrived or its pipe hit end of file. *)
let collect ?(enough = max_int) w =
  let lines = ref [] in
  for _ = 1 to 100 do
    if List.length !lines < enough && not w.Worker.eof then
      Worker.drain w ~readable:(Worker.select [ w ] 0.1) (fun l ->
          lines := l :: !lines)
  done;
  List.rev !lines

let rec await_exit ?(tries = 500) w =
  match Worker.reap w with
  | Some status -> status
  | None when tries > 0 ->
      Unix.sleepf 0.01;
      await_exit ~tries:(tries - 1) w
  | None -> Alcotest.fail "worker never exited"

let status =
  Alcotest.testable
    (fun ppf -> function
      | Unix.WEXITED n -> Fmt.pf ppf "exited %d" n
      | Unix.WSIGNALED n | Unix.WSTOPPED n -> Fmt.pf ppf "signal %d" n)
    ( = )

(* {2 The line framer} *)

(* Every complete line [t] holds, in order *)
let pop_all t =
  let rec go acc =
    match Lines.pop t with Some l -> go (l :: acc) | None -> List.rev acc
  in
  go []

(* Feed [input] in reads of the given lengths, popping after each read as
   the readers do; the lines and the final tail length *)
let framed input reads =
  let t = Lines.create () and bytes = Bytes.of_string input in
  let lines, _ =
    List.fold_left
      (fun (acc, off) k ->
        Lines.add t bytes off k;
        (acc @ pop_all t, off + k))
      ([], 0) reads
  in
  (lines, Lines.pending t)

(* Every way of cutting a small input into reads yields the same lines *)
let test_framer_any_split () =
  let input = "ab\n\ncde\nf\n\nghi" in
  let n = String.length input in
  (* bit [i] of [cuts] ends a read after byte [i] *)
  for cuts = 0 to (1 lsl (n - 1)) - 1 do
    let reads, last =
      List.fold_left
        (fun (reads, from) i ->
          if i = n || cuts land (1 lsl (i - 1)) <> 0 then ((i - from) :: reads, i)
          else (reads, from))
        ([], 0)
        (List.init n (fun i -> i + 1))
    in
    assert (last = n);
    let lines, tail = framed input (List.rev reads) in
    Alcotest.(check (list string)) "lines" [ "ab"; ""; "cde"; "f"; "" ] lines;
    Alcotest.(check int) "unterminated tail" 3 tail
  done

(* Lines around the buffer's first size, in reads of several sizes, so
   the framer both slides its pending bytes and grows *)
let test_framer_many_lines () =
  let lines = List.init 200 (fun i -> String.make ((i * 37) mod 1500) 'x') in
  let input = String.concat "\n" lines ^ "\n" in
  List.iter
    (fun size ->
      let n = String.length input in
      let reads =
        List.init ((n + size - 1) / size) (fun i -> min size (n - (i * size)))
      in
      let got, tail = framed input reads in
      Alcotest.(check (list string)) (Printf.sprintf "reads of %d" size) lines got;
      Alcotest.(check int) "no tail" 0 tail)
    [ 1; 7; 1000; 4096; 65536 ]

(* A 1 MiB line fed in 64 KiB reads comes out whole; until its newline
   arrives, the tail length is every byte read so far, which is what the
   daemon holds against its request size limit *)
let test_framer_big_line () =
  let line = String.init (1 lsl 20) (fun i -> Char.chr (97 + (i mod 26))) in
  let input = Bytes.of_string (line ^ "\nnext") in
  let t = Lines.create () and got = ref [] and off = ref 0 in
  while !off < Bytes.length input do
    let k = min 65536 (Bytes.length input - !off) in
    Lines.add t input !off k;
    off := !off + k;
    got := !got @ pop_all t;
    if !off <= String.length line then
      Alcotest.(check int) "tail so far" !off (Lines.pending t)
  done;
  Alcotest.(check int) "one line" 1 (List.length !got);
  Alcotest.(check bool) "whole" true (!got = [ line ]);
  Alcotest.(check int) "the next line's start" 4 (Lines.pending t);
  Lines.clear t;
  Alcotest.(check int) "cleared" 0 (Lines.pending t);
  Lines.add t (Bytes.of_string "after\n") 0 6;
  Alcotest.(check (list string)) "framing resumes" [ "after" ] (pop_all t)

(* {2 Workers} *)

let test_line_roundtrip () =
  let rec echo ~recv ~send =
    match recv () with
    | None | Some "QUIT" -> ()
    | Some line ->
        send ("echo " ^ line);
        echo ~recv ~send
  in
  let w = Worker.spawn echo in
  List.iter (fun l -> assert (Worker.send w l)) [ "a"; "b c"; "d" ];
  Alcotest.(check (list string))
    "lines framed and in order" [ "echo a"; "echo b c"; "echo d" ]
    (collect ~enough:3 w);
  assert (Worker.send w "QUIT");
  Worker.wait w;
  Alcotest.(check (option status)) "clean exit" (Some (Unix.WEXITED 0)) w.status

let test_exit_statuses () =
  let ok = Worker.spawn (fun ~recv:_ ~send:_ -> ()) in
  let raised = Worker.spawn (fun ~recv:_ ~send:_ -> failwith "boom") in
  Alcotest.check status "returning exits 0" (Unix.WEXITED 0) (await_exit ok);
  Alcotest.check status "raising exits 2" (Unix.WEXITED 2) (await_exit raised)

let test_kill9_surfaces () =
  let w = Worker.spawn silent in
  Alcotest.(check (option status)) "alive" None (Worker.reap w);
  Unix.kill w.pid Sys.sigkill;
  Alcotest.check status "death carries the signal"
    (Unix.WSIGNALED Sys.sigkill) (await_exit w);
  Alcotest.(check (option status)) "status is kept"
    (Some (Unix.WSIGNALED Sys.sigkill)) (Worker.reap w)

let test_silent_worker_is_stale () =
  let ping ~recv ~send =
    if recv () <> None then begin
      send "HB";
      ignore (recv ())
    end
  in
  let w = Worker.spawn ping in
  Unix.sleepf 0.2;
  Alcotest.(check bool) "silent past the timeout" true
    (Worker.stale w ~timeout:0.1);
  ignore (Worker.send w "go");
  Alcotest.(check (list string)) "heartbeat line" [ "HB" ] (collect ~enough:1 w);
  Alcotest.(check bool) "a message is a heartbeat" false
    (Worker.stale w ~timeout:0.1);
  Worker.kill w

let test_child_holds_no_parent_descriptor () =
  (* a pipe the parent opened before forking stands in for a listener or
     client socket: once the parent closes its write end, the read end
     sees end of file only if the worker kept no copy *)
  let r, w_end = Unix.pipe () in
  let w = Worker.spawn silent in
  Unix.close w_end;
  let eof =
    match Unix.select [ r ] [] [] 2. with
    | [], _, _ -> false
    | _ -> Unix.read r (Bytes.create 1) 0 1 = 0
  in
  Unix.close r;
  Worker.kill w;
  Alcotest.(check bool) "end of file reaches the reader" true eof

let test_send_to_dead_worker () =
  Worker.with_sigpipe_ignored @@ fun () ->
  let w = Worker.spawn (fun ~recv:_ ~send:_ -> ()) in
  ignore (collect w);
  (* the exited child releases its command pipe's read end at some point
     after the message pipe reports end of file: write until it breaks *)
  let rec broken tries =
    (not (Worker.send w "hello"))
    || (tries > 0 && (Unix.sleepf 0.01; broken (tries - 1)))
  in
  Alcotest.(check bool) "write into a broken pipe" true (broken 500);
  Worker.wait w;
  Alcotest.(check bool) "write to a reaped worker" false (Worker.send w "hello")

let test_sigpipe_guard_restores () =
  let current () =
    let h = Sys.signal Sys.sigpipe Sys.Signal_default in
    Sys.set_signal Sys.sigpipe h;
    h
  in
  let mine _ = () in
  let is_mine () =
    match current () with Sys.Signal_handle f -> f == mine | _ -> false
  in
  let previous = Sys.signal Sys.sigpipe (Sys.Signal_handle mine) in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe previous)
  @@ fun () ->
  Alcotest.(check bool) "ignored inside" true
    (Worker.with_sigpipe_ignored current = Sys.Signal_ignore);
  Alcotest.(check bool) "restored after" true (is_mine ());
  (try Worker.with_sigpipe_ignored (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "restored after a raise" true (is_mine ())

let test_stale_readable_set_does_not_block () =
  (* a readable set taken from a worker that has since been replaced; the
     replacement reuses the descriptor number but has nothing to say *)
  let old = Worker.spawn (fun ~recv:_ ~send -> send "bye") in
  let readable = Worker.select [ old ] 2. in
  Alcotest.(check bool) "old pipe was readable" true (readable <> []);
  Worker.kill old;
  let fresh = Worker.spawn silent in
  let lines = ref [] in
  Worker.drain fresh ~readable:(fresh.msg :: readable) (fun l ->
      lines := l :: !lines);
  Alcotest.(check (list string)) "nothing read" [] !lines;
  Alcotest.(check bool) "not mistaken for end of file" false fresh.eof;
  Worker.kill fresh

let () =
  let case name f = Alcotest.test_case name `Quick (within f) in
  Alcotest.run "workers"
    [
      ( "framing",
        [
          case "every split gives the same lines" test_framer_any_split;
          case "lines through slides and growth" test_framer_many_lines;
          case "a 1 MiB line in 64 KiB reads" test_framer_big_line;
          case "line round trip" test_line_roundtrip;
        ] );
      ( "lifecycle",
        [
          case "exit statuses" test_exit_statuses;
          case "kill -9 surfaces as a death" test_kill9_surfaces;
          case "silent worker is stale" test_silent_worker_is_stale;
        ] );
      ( "hygiene",
        [
          case "child holds no parent descriptor"
            test_child_holds_no_parent_descriptor;
          case "send to a dead worker returns" test_send_to_dead_worker;
          case "sigpipe guard restores the handler" test_sigpipe_guard_restores;
          case "stale readable set does not block drain"
            test_stale_readable_set_does_not_block;
        ] );
    ]
