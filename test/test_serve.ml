(* Tests for the repair-as-a-service stack: the JSON codec, the wire
   protocol's validation and error replies, the warm-state LRU registry,
   the worker-side handler, the fork-worker pool (including kill -9 of a
   busy worker), and the daemon end to end over a Unix socket — malformed
   requests, oversized lines, client disconnects mid-request, concurrent
   clients, chaos worker crashes, and SIGTERM shutdown. *)

module Serve = Specrepair_serve
module Json = Specrepair_json
module Counters = Json.Counters
module Protocol = Serve.Protocol
module Registry = Serve.Registry
module Handler = Serve.Handler
module Pool = Serve.Pool
module Daemon = Serve.Daemon
module Client = Serve.Client

let contains sub s =
  let k = String.length sub and n = String.length s in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let check_contains what sub s =
  if not (contains sub s) then
    Alcotest.failf "%s: expected %S within %S" what sub s

(* {2 JSON codec} *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.List [ Json.Num 1.; Json.Num 2.5; Json.Num (-300.) ]);
        ("b", Json.Str "x\n\t\"y\"\\z");
        ("c", Json.Bool true);
        ("d", Json.Null);
        ("e", Json.Obj [ ("nested", Json.Str "") ]);
      ]
  in
  let s = Json.to_string v in
  if String.contains s '\n' then Alcotest.fail "to_string emitted a newline";
  match Json.parse s with
  | Error (pos, msg) -> Alcotest.failf "re-parse failed at %d: %s" pos msg
  | Ok v' ->
      Alcotest.(check (option string))
        "string survives" (Some "x\n\t\"y\"\\z")
        (Json.mem_str "b" v');
      Alcotest.(check (option int)) "int survives" (Some (-300))
        (Option.bind (Json.member "a" v') (fun l ->
             match Json.to_list l with
             | Some [ _; _; n ] -> Json.to_int n
             | _ -> None));
      Alcotest.(check (option bool)) "bool survives" (Some true)
        (Json.mem_bool "c" v')

let test_json_errors () =
  let fails ?at s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "parse accepted %S" s
    | Error (pos, _) -> (
        match at with
        | Some p -> Alcotest.(check int) ("position of " ^ s) p pos
        | None -> ())
  in
  fails ~at:0 "garbage";
  fails "{\"a\":1";
  fails "{\"a\" 1}";
  fails "[1,2,";
  fails "\"unterminated";
  (* trailing garbage after a complete value is an error, with the
     position pointing at the garbage *)
  fails ~at:2 "1 2";
  fails "{} {}"

let test_json_unicode () =
  (match Json.parse {|"Aé"|} with
  | Ok (Json.Str s) -> Alcotest.(check string) "bmp escapes" "A\xc3\xa9" s
  | _ -> Alcotest.fail "bmp escape parse failed");
  match Json.parse {|"😀"|} with
  | Ok (Json.Str s) ->
      Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair parse failed"

let test_json_fixed () =
  let s =
    Json.to_string
      (Json.List
         [ Json.Fixed (3, 12.3456); Json.Fixed (1, 2.); Json.Fixed (4, 0.5) ])
  in
  Alcotest.(check string) "exact decimals" {|[12.346,2.0,0.5000]|} s;
  Alcotest.(check bool) "reads back as numbers" true
    (Json.parse s
    = Ok (Json.List [ Json.Num 12.346; Json.Num 2.; Json.Num 0.5 ]))

(* {2 Protocol} *)

let test_protocol_valid () =
  (match
     Protocol.parse_request
       {|{"id":"r1","method":"repair","params":{"source":"sig A {}"}}|}
   with
  | Ok { Protocol.id; call = Protocol.Repair p } ->
      Alcotest.(check string) "id" "r1" id;
      Alcotest.(check string) "default tool" "beafix" p.Protocol.tool;
      Alcotest.(check int) "default seed" 42 p.Protocol.seed;
      Alcotest.(check string) "source" "sig A {}" p.Protocol.source
  | Ok _ -> Alcotest.fail "parsed as the wrong method"
  | Error e -> Alcotest.failf "valid repair rejected: %s" e);
  match Protocol.parse_request {|{"method":"status"}|} with
  | Ok { Protocol.id = ""; call = Protocol.Status } -> ()
  | _ -> Alcotest.fail "bare status request rejected"

let test_protocol_errors () =
  let err line =
    match Protocol.parse_request line with
    | Ok _ -> Alcotest.failf "accepted %S" line
    | Error reply ->
        if Protocol.reply_is_ok reply then
          Alcotest.failf "error reply claims ok: %s" reply;
        reply
  in
  check_contains "not json" {|"code":"parse_error"|} (err "][");
  let r = err {|{"id":"k7","method":"frobnicate","params":{}}|} in
  check_contains "unknown method" {|"code":"unknown_method"|} r;
  check_contains "id echoed" {|"id":"k7"|} r;
  check_contains "missing source" {|"code":"invalid_request"|}
    (err {|{"method":"repair","params":{}}|});
  check_contains "bad tool" {|"code":"invalid_request"|}
    (err {|{"method":"repair","params":{"source":"x","tool":"magic"}}|});
  check_contains "missing dimacs" {|"code":"invalid_request"|}
    (err {|{"method":"sat","params":{}}|});
  check_contains "non-object request" {|"code":"invalid_request"|}
    (err {|[1,2,3]|})

let test_protocol_cache_keys () =
  let req line =
    match Protocol.parse_request line with
    | Ok r -> r.Protocol.call
    | Error e -> Alcotest.failf "request rejected: %s" e
  in
  let key c =
    match Protocol.cache_key c with
    | Some k -> k
    | None -> Alcotest.fail "expected a cache key"
  in
  let repair = req {|{"method":"repair","params":{"source":"sig A {}"}}|} in
  let evaluate = req {|{"method":"evaluate","params":{"source":"sig A {}"}}|} in
  Alcotest.(check string)
    "repair and evaluate share warm state for one source" (key repair)
    (key evaluate);
  (* parameters the protocol does not list, such as these, are accepted
     and ignored: they do not split the warm state *)
  let unlisted =
    req
      {|{"method":"repair","params":{"source":"sig A {}","simplify":true,"portfolio":4}}|}
  in
  Alcotest.(check string) "unlisted params do not split warm state"
    (key repair) (key unlisted);
  (* seed is session state, not oracle state: same key *)
  let reseeded =
    req {|{"method":"repair","params":{"source":"sig A {}","seed":7}}|}
  in
  Alcotest.(check string) "seed does not split warm state" (key repair)
    (key reseeded);
  Alcotest.(check (option string))
    "status is uncacheable" None
    (Protocol.cache_key Protocol.Status)

let test_protocol_replies () =
  let ok = Protocol.ok_reply ~id:"a" (Json.Obj [ ("n", Json.Num 1.) ]) in
  Alcotest.(check bool) "ok reply is ok" true (Protocol.reply_is_ok ok);
  check_contains "ok id" {|"id":"a"|} ok;
  let err =
    Protocol.error_reply ~id:"b" ~code:Protocol.Overloaded "queue full"
  in
  Alcotest.(check bool) "error reply is not ok" false
    (Protocol.reply_is_ok err);
  check_contains "error code" {|"code":"overloaded"|} err;
  (* only the top-level flag counts, wherever else an "ok" member sits *)
  let err_ok_data =
    Protocol.error_reply ~id:"c" ~code:Protocol.Internal
      ~data:[ ("ok", Json.Bool true) ] "boom"
  in
  check_contains "data holds an ok member" {|"ok":true|} err_ok_data;
  Alcotest.(check bool) "error reply with ok data is not ok" false
    (Protocol.reply_is_ok err_ok_data);
  let ok_spec =
    Protocol.ok_reply ~id:"d"
      (Json.Obj [ ("spec", Json.Str {|fact { "ok":true }|}) ])
  in
  Alcotest.(check bool) "ok reply quoting ok:true is ok" true
    (Protocol.reply_is_ok ok_spec);
  let err_quoted_id =
    Protocol.error_reply ~id:{|x","ok":true|} ~code:Protocol.Internal "boom"
  in
  Alcotest.(check bool) "error reply whose id quotes ok:true is not ok" false
    (Protocol.reply_is_ok err_quoted_id);
  Alcotest.(check bool) "ok reply with an escaped id is ok" true
    (Protocol.reply_is_ok (Protocol.ok_reply ~id:"a\\\"b" (Json.Obj [])))

(* {2 Registry} *)

let test_registry_lru () =
  let t = Registry.create ~max:2 in
  let builds = ref [] in
  let get k =
    Registry.find_or_add t k (fun () ->
        builds := k :: !builds;
        k)
  in
  let _, w = get "a" in
  Alcotest.(check bool) "first lookup misses" false w;
  let _, w = get "a" in
  Alcotest.(check bool) "second lookup hits" true w;
  ignore (get "b");
  ignore (get "a");
  (* LRU order is now a, b: adding c evicts b *)
  ignore (get "c");
  Alcotest.(check int) "bounded" 2 (Registry.size t);
  let _, w = get "a" in
  Alcotest.(check bool) "promoted entry survived" true w;
  let _, w = get "b" in
  Alcotest.(check bool) "evicted entry rebuilds" false w;
  let s = Registry.stats t in
  Alcotest.(check int) "misses" 4 (Counters.find s "misses");
  Alcotest.(check int) "hits" 3 (Counters.find s "hits");
  (* b's re-add evicted c: 2 evictions in total *)
  Alcotest.(check int) "evictions" 2 (Counters.find s "evictions");
  Alcotest.(check int) "builds = misses" 4 (List.length !builds)

(* {2 Handler} *)

let unsat_cnf = "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n"
let spec_src = "sig A {}\nrun { some A } for 2\n"

let sat_request ?(id = "") () =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Str id);
         ("method", Json.Str "sat");
         ("params", Json.Obj [ ("dimacs", Json.Str unsat_cnf) ]);
       ])

let evaluate_request ?(id = "") ?chaos ?deadline_ms src =
  let params =
    [ ("source", Json.Str src); ("file", Json.Str "<test>") ]
    @ (match chaos with Some c -> [ ("chaos", Json.Str c) ] | None -> [])
    @
    match deadline_ms with
    | Some d -> [ ("deadline_ms", Json.Num d) ]
    | None -> []
  in
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Str id);
         ("method", Json.Str "evaluate");
         ("params", Json.Obj params);
       ])

let test_handler_errors_and_warmth () =
  let h = Handler.create ~max_sessions:4 in
  let reply, warmth = Handler.handle h "not json" in
  check_contains "malformed line" {|"code":"parse_error"|} reply;
  Alcotest.(check bool) "errors are uncached" true
    (warmth = Handler.Uncached);
  let reply, _ =
    Handler.handle h
      {|{"id":"s","method":"repair","params":{"source":"sig A { broken"}}|}
  in
  check_contains "frontend failure" {|"code":"spec_error"|} reply;
  check_contains "positioned diagnostics attached" {|"diagnostics":[|} reply;
  let reply, w1 = Handler.handle h (sat_request ()) in
  check_contains "unsat verdict" {|"verdict":"unsat"|} reply;
  Alcotest.(check bool) "first solve is cold" true (w1 = Handler.Cold);
  let reply2, w2 = Handler.handle h (sat_request ()) in
  Alcotest.(check bool) "memoized verdict" true (w2 = Handler.Warm);
  check_contains "same verdict" {|"verdict":"unsat"|} reply2;
  let reply, w = Handler.handle h (evaluate_request spec_src) in
  check_contains "evaluate answers verdicts" {|"verdicts":[|} reply;
  Alcotest.(check bool) "fresh spec is cold" true (w = Handler.Cold);
  let _, w = Handler.handle h (evaluate_request spec_src) in
  Alcotest.(check bool) "warm spec hits" true (w = Handler.Warm);
  let s = Handler.registry_stats h in
  Alcotest.(check int) "registry hits" 2 (Counters.find s "hits")

(* Warm state must never show in a reply: with two entries for 18 specs,
   every spec is served cold, warm, cold again after its entry was
   evicted, then warm again, and each reply equals the first once [warm]
   is normalised, [candidates_tried] included.  BeAFix's candidate list
   is the state a warm entry keeps here, beside the oracle. *)
let repair_request ~tool src =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Str "");
         ("method", Json.Str "repair");
         ( "params",
           Json.Obj
             [
               ("source", Json.Str src);
               ("file", Json.Str "<test>");
               ("tool", Json.Str tool);
             ] );
       ])

let cold_form reply =
  let hot = {|"warm":true|} and n = String.length reply in
  let k = String.length hot in
  let rec go i =
    if i + k > n then reply
    else if String.sub reply i k = hot then
      String.sub reply 0 i ^ {|"warm":false|}
      ^ String.sub reply (i + k) (n - i - k)
    else go (i + 1)
  in
  go 0

let test_handler_warm_equals_cold () =
  let module B = Specrepair_benchmarks in
  let h = Handler.create ~max_sessions:2 in
  let sources =
    List.map
      (fun (v : B.Generate.variant) ->
        (v.id, Specrepair_alloy.Pretty.source v.injected.faulty))
      (B.Generate.sample ~seed:11 ~per_domain:1 ())
  in
  Alcotest.(check int) "one spec per domain" (List.length B.Domains.all)
    (List.length sources);
  let candidates_tried reply =
    match Json.parse reply with
    | Ok j ->
        Option.bind (Json.member "result" j) (Json.mem_int "candidates_tried")
    | Error _ -> None
  in
  let serve ~tool (id, src) expected_warmth =
    let line = repair_request ~tool src in
    let reply, warmth = Handler.handle h line in
    if warmth <> expected_warmth then
      Alcotest.failf "%s (%s): unexpected warmth" id tool;
    reply
  in
  let check_same ~tool ((id, _) as spec) first warmth =
    let reply = serve ~tool spec warmth in
    if cold_form reply <> first then
      Alcotest.failf "%s (%s): reply differs from the first cold reply:\n%s\n%s"
        id tool first reply;
    Alcotest.(check (option int))
      (id ^ ": candidates_tried") (candidates_tried first)
      (candidates_tried reply)
  in
  let firsts =
    List.map
      (fun spec ->
        let first = serve ~tool:"beafix" spec Handler.Cold in
        check_contains (fst spec) {|"ok":true|} first;
        if candidates_tried first = None then
          Alcotest.failf "%s: no candidates_tried" (fst spec);
        check_same ~tool:"beafix" spec first Handler.Warm;
        first)
      sources
  in
  List.iter2
    (fun spec first ->
      check_same ~tool:"beafix" spec first Handler.Cold;
      check_same ~tool:"beafix" spec first Handler.Warm)
    sources firsts;
  let s = Handler.registry_stats h in
  Alcotest.(check bool) "entries were evicted" true
    (Counters.find s "evictions" >= List.length sources);
  (* a portfolio request on a spec whose entry a BeAFix request warmed *)
  match sources with
  | spec :: (other :: third :: _) ->
      ignore (serve ~tool:"beafix" spec Handler.Cold);
      let first = cold_form (serve ~tool:"portfolio" spec Handler.Warm) in
      check_same ~tool:"portfolio" spec first Handler.Warm;
      ignore (serve ~tool:"beafix" other Handler.Cold);
      ignore (serve ~tool:"beafix" third Handler.Cold);
      check_same ~tool:"portfolio" spec first Handler.Cold;
      check_same ~tool:"portfolio" spec first Handler.Warm
  | _ -> Alcotest.fail "too few specs"

(* {2 Pool} *)

let rec pool_events ?(deadline = 10.) pool =
  let readable, _, _ = Unix.select (Pool.fds pool) [] [] 0.2 in
  (* drain strictly before reap: reap respawns dead slots, and the fresh
     pipes recycle fd numbers, which would invalidate [readable] *)
  let drained = Pool.drain pool readable in
  match drained @ Pool.reap pool with
  | [] when deadline > 0. -> pool_events ~deadline:(deadline -. 0.2) pool
  | evs -> evs

let toy_handle line =
  if line = "sleep" then Unix.sleepf 30.;
  ("echo:" ^ line, Handler.Uncached)

let test_pool_roundtrip () =
  let pool = Pool.create ~jobs:2 ~handle:toy_handle in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Pool.dispatch pool ~slot:0 ~token:1 "hello";
      Pool.dispatch pool ~slot:1 ~token:2 "world";
      Alcotest.(check bool) "slot 0 busy" false (Pool.idle pool 0);
      let rec collect acc =
        if List.length acc >= 2 then acc
        else collect (pool_events pool @ acc)
      in
      let replies =
        collect []
        |> List.filter_map (function
             | Pool.Reply { token; line; _ } -> Some (token, line)
             | _ -> None)
        |> List.sort compare
      in
      Alcotest.(check (list (pair int string)))
        "both replies, tagged by token"
        [ (1, "echo:hello"); (2, "echo:world") ]
        replies;
      Alcotest.(check bool) "slot 0 idle again" true (Pool.idle pool 0);
      (match Pool.dispatch pool ~slot:0 ~token:3 "again" with
      | () -> ()
      | exception Invalid_argument _ -> Alcotest.fail "idle slot refused");
      ignore (pool_events pool);
      Alcotest.(check int) "no respawns in a clean run" 0 (Pool.respawns pool))

let test_pool_kill9 () =
  let pool = Pool.create ~jobs:2 ~handle:toy_handle in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Pool.dispatch pool ~slot:0 ~token:7 "sleep";
      let victim = List.nth (Pool.pids pool) 0 in
      Unix.sleepf 0.1;
      Unix.kill victim Sys.sigkill;
      let died =
        pool_events pool
        |> List.exists (function
             | Pool.Died { token = 7; slot = 0 } -> true
             | _ -> false)
      in
      Alcotest.(check bool) "death surfaced for the in-flight token" true died;
      Alcotest.(check int) "slot respawned" 1 (Pool.respawns pool);
      Alcotest.(check bool) "slot idle after respawn" true (Pool.idle pool 0);
      let fresh = List.nth (Pool.pids pool) 0 in
      if fresh = victim then Alcotest.fail "slot still shows the dead pid";
      (* the respawned worker serves the next request *)
      Pool.dispatch pool ~slot:0 ~token:8 "back";
      let replied =
        pool_events pool
        |> List.exists (function
             | Pool.Reply { token = 8; line = "echo:back"; _ } -> true
             | _ -> false)
      in
      Alcotest.(check bool) "respawned worker answers" true replied)

let test_pool_hard_deadline () =
  let pool = Pool.create ~jobs:1 ~handle:toy_handle in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Pool.dispatch pool ~slot:0 ~token:9 ~kill_after_s:0.3 "sleep";
      let rec wait n =
        match Pool.kill_overdue pool with
        | [] when n > 0 ->
            Unix.sleepf 0.1;
            wait (n - 1)
        | evs -> evs
      in
      let timed_out =
        wait 30
        |> List.exists (function
             | Pool.Timed_out { token = 9; _ } -> true
             | _ -> false)
      in
      Alcotest.(check bool) "overdue worker killed" true timed_out;
      Alcotest.(check bool) "slot usable again" true (Pool.idle pool 0))

(* {2 Daemon end to end} *)

let socket_counter = ref 0

(* Unix socket paths cap out around 104 bytes: build them under /tmp, not
   the (arbitrarily deep) dune sandbox. *)
let fresh_socket () =
  incr socket_counter;
  Printf.sprintf "/tmp/specrepair_test_%d_%d.sock" (Unix.getpid ())
    !socket_counter

let start_daemon ?(config = fun c -> c) () =
  let sock = fresh_socket () in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  match Unix.fork () with
  | 0 ->
      Unix.putenv "SPECREPAIR_SERVE_CHAOS" "1";
      let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      Unix.dup2 devnull Unix.stdout;
      Unix.close devnull;
      (match
         Daemon.run
           (config
              { Daemon.default_config with socket = Some sock; workers = 2 })
       with
      | () -> Unix._exit 0
      | exception _ -> Unix._exit 2)
  | pid ->
      let rec await n =
        if Sys.file_exists sock then ()
        else if n = 0 then Alcotest.fail "daemon socket never appeared"
        else begin
          Unix.sleepf 0.05;
          await (n - 1)
        end
      in
      await 200;
      (sock, pid)

(* A SIGKILLed daemon never unlinks its socket: the test does. *)
let stop_daemon (sock, pid) =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error (ECHILD, _, _) -> ());
  try Unix.unlink sock with Unix.Unix_error _ -> ()

let with_daemon ?config k =
  let sock, pid = start_daemon ?config () in
  Fun.protect
    ~finally:(fun () -> stop_daemon (sock, pid))
    (fun () -> k sock pid)

let ask sock line =
  match Client.oneshot (Client.Unix_sock sock) line with
  | Ok r -> r
  | Error m -> Alcotest.failf "round-trip failed: %s" m

let status_counter sock name =
  let reply = ask sock {|{"id":"st","method":"status","params":{}}|} in
  match Json.parse reply with
  | Ok j -> (
      match Option.bind (Json.member "result" j) (Json.mem_int name) with
      | Some v -> v
      | None -> Alcotest.failf "status lacks %s: %s" name reply)
  | Error _ -> Alcotest.failf "status reply is not JSON: %s" reply

let test_daemon_protocol_errors () =
  with_daemon (fun sock _ ->
      let r = ask sock "this is not json" in
      check_contains "malformed request" {|"code":"parse_error"|} r;
      let r = ask sock {|{"id":"u1","method":"teleport","params":{}}|} in
      check_contains "unknown method" {|"code":"unknown_method"|} r;
      check_contains "id echoed on errors" {|"id":"u1"|} r;
      (* errors must not poison the connection state: real work still runs *)
      let r = ask sock (sat_request ~id:"ok1" ()) in
      check_contains "daemon still serves" {|"verdict":"unsat"|} r)

let test_daemon_oversized () =
  with_daemon
    ~config:(fun c -> { c with Daemon.max_request_bytes = 256 })
    (fun sock _ ->
      let big = evaluate_request (spec_src ^ String.make 400 ' ') in
      let r = ask sock big in
      check_contains "oversized refused" {|"code":"oversized"|} r;
      let r = ask sock {|{"id":"s","method":"status","params":{}}|} in
      check_contains "daemon survives oversized lines" {|"ok":true|} r)

let test_daemon_warm_requests () =
  with_daemon (fun sock _ ->
      let r1 = ask sock (evaluate_request ~id:"c" spec_src) in
      check_contains "cold first" {|"warm":false|} r1;
      let r2 = ask sock (evaluate_request ~id:"w" spec_src) in
      check_contains "warm second" {|"warm":true|} r2;
      Alcotest.(check int) "one miss" 1 (status_counter sock "cache_misses");
      Alcotest.(check int) "one hit" 1 (status_counter sock "cache_hits"))

let test_daemon_disconnect_mid_request () =
  with_daemon (fun sock _ ->
      (match Client.connect (Client.Unix_sock sock) with
      | Error m -> Alcotest.failf "connect failed: %s" m
      | Ok c ->
          (* half a request, no newline, then vanish *)
          Client.send_partial c {|{"id":"gone","method":"stat|};
          Client.close c);
      (* the daemon must drop the dead client and keep serving *)
      let r = ask sock (sat_request ~id:"alive" ()) in
      check_contains "daemon survives the disconnect" {|"verdict":"unsat"|} r)

let test_daemon_concurrent_clients () =
  with_daemon (fun sock _ ->
      let reqs =
        List.init 6 (fun i ->
            if i mod 2 = 0 then sat_request ~id:(Printf.sprintf "c%d" i) ()
            else evaluate_request ~id:(Printf.sprintf "c%d" i) spec_src)
      in
      match Client.burst (Client.Unix_sock sock) reqs with
      | Error m -> Alcotest.failf "burst failed: %s" m
      | Ok replies ->
          Alcotest.(check int) "every client answered" 6 (List.length replies);
          List.iteri
            (fun i r ->
              check_contains "replies matched to their connection"
                (Printf.sprintf {|"id":"c%d"|} i)
                r;
              Alcotest.(check bool) "reply ok" true (Protocol.reply_is_ok r))
            replies)

let test_daemon_worker_crash () =
  with_daemon (fun sock _ ->
      let r = ask sock (evaluate_request ~id:"boom" ~chaos:"kill" spec_src) in
      check_contains "crash becomes one error reply"
        {|"code":"worker_crashed"|} r;
      check_contains "crash reply keeps the id" {|"id":"boom"|} r;
      (* exactly one request was lost; the daemon answers the next one *)
      let r = ask sock (evaluate_request ~id:"next" spec_src) in
      Alcotest.(check bool) "daemon keeps serving" true
        (Protocol.reply_is_ok r);
      Alcotest.(check int) "one respawn" 1
        (status_counter sock "worker_respawns"))

let test_daemon_hard_deadline () =
  with_daemon (fun sock _ ->
      (* cooperative deadline 50 ms, worker wedged for 30 s: the daemon's
         3 x deadline + 2 s backstop must kill it and answer *)
      let r =
        ask sock
          (evaluate_request ~id:"dl" ~chaos:"sleep:30000" ~deadline_ms:50.
             spec_src)
      in
      check_contains "backstop answered" {|"code":"deadline_exceeded"|} r;
      Alcotest.(check int) "wedged worker was replaced" 1
        (status_counter sock "worker_respawns"))

(* Everything [fd] sends until the peer closes it; [None] if it stays
   open and silent for [timeout] seconds. *)
let read_to_eof fd ~timeout =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.select [ fd ] [] [] timeout with
    | [], _, _ -> None
    | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Some (Buffer.contents buf)
        | k ->
            Buffer.add_subbytes buf chunk 0 k;
            go ())
  in
  go ()

let test_daemon_respawn_holds_no_client_socket () =
  with_daemon
    ~config:(fun c -> { c with Daemon.workers = 1; max_request_bytes = 200 })
    (fun sock _ ->
      let a = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Unix.close a) @@ fun () ->
      Unix.connect a (Unix.ADDR_UNIX sock);
      (* another client's request kills the worker: the replacement is
         forked while A is connected *)
      let r = ask sock (evaluate_request ~id:"boom" ~chaos:"kill" spec_src) in
      check_contains "worker crashed" {|"code":"worker_crashed"|} r;
      (* an unterminated line past the limit: the daemon answers and drops
         A, which must then see end of file *)
      ignore (Unix.write_substring a (String.make 300 'x') 0 300);
      match read_to_eof a ~timeout:3. with
      | Some r -> check_contains "oversized reply" {|"code":"oversized"|} r
      | None -> Alcotest.fail "no end of file: a worker holds A's socket")

let test_daemon_sigterm_shutdown () =
  let sock, pid = start_daemon () in
  let r = ask sock (sat_request ~id:"pre" ()) in
  Alcotest.(check bool) "served before shutdown" true (Protocol.reply_is_ok r);
  Unix.kill pid Sys.sigterm;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> Alcotest.failf "daemon exited %d" n
  | _ -> Alcotest.fail "daemon did not exit cleanly");
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock)

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "errors carry positions" `Quick test_json_errors;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode;
          Alcotest.test_case "fixed decimals" `Quick test_json_fixed;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "valid requests" `Quick test_protocol_valid;
          Alcotest.test_case "error replies" `Quick test_protocol_errors;
          Alcotest.test_case "cache keys" `Quick test_protocol_cache_keys;
          Alcotest.test_case "reply shapes" `Quick test_protocol_replies;
        ] );
      ( "registry",
        [ Alcotest.test_case "lru bound and stats" `Quick test_registry_lru ] );
      ( "handler",
        [
          Alcotest.test_case "errors and warmth" `Quick
            test_handler_errors_and_warmth;
          Alcotest.test_case "warm replies equal cold ones" `Quick
            test_handler_warm_equals_cold;
        ] );
      ( "pool",
        [
          Alcotest.test_case "roundtrip" `Quick test_pool_roundtrip;
          Alcotest.test_case "kill -9 of a busy worker" `Quick test_pool_kill9;
          Alcotest.test_case "hard deadline" `Quick test_pool_hard_deadline;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "protocol errors" `Quick
            test_daemon_protocol_errors;
          Alcotest.test_case "oversized requests" `Quick test_daemon_oversized;
          Alcotest.test_case "warm repeat requests" `Quick
            test_daemon_warm_requests;
          Alcotest.test_case "disconnect mid-request" `Quick
            test_daemon_disconnect_mid_request;
          Alcotest.test_case "concurrent clients" `Quick
            test_daemon_concurrent_clients;
          Alcotest.test_case "worker crash costs one request" `Quick
            test_daemon_worker_crash;
          Alcotest.test_case "hard deadline backstop" `Quick
            test_daemon_hard_deadline;
          Alcotest.test_case "respawned worker holds no client socket" `Quick
            test_daemon_respawn_holds_no_client_socket;
          Alcotest.test_case "sigterm shutdown" `Quick
            test_daemon_sigterm_shutdown;
        ] );
    ]
