(* The repository benchmark driver.

   One invocation measures one workload for a wall-clock budget and prints
   one JSON result object as the last line of stdout:

     driver.exe --workload NAME --seed N --seconds S --trace 0|1

   The specifications come from the program's own corpus generator
   (seeded fault injection over the eighteen benchmark domains); --seed
   orders the work, so one seed always runs the same sequence.  Each
   workload is something a user of specrepair runs, and an "op" is its
   unit of work:

     study        study rows, the paper's twelve techniques on seeded
                  fault variants, in passes of 108 rows that each start
                  from a fresh process as [evaluate --jobs 1] does; an op
                  is one row
     cold-repair  the hybrid portfolio (ATR, then Multi-Round) repairing a
                  spec nothing has seen before, from source text through a
                  fresh session, as [repair --tool portfolio] does; an op
                  is one repair
     serve        one closed-loop client against a forked daemon in its
                  default configuration, sending repair requests in the
                  bench SERVE stage's pattern (each spec once cold, then
                  five warm repeats) over more specs than the daemon keeps
                  warm, as [serve] and [client] do; an op is one request

   --trace 0 reports the end-to-end metrics: the median and 90th
   percentile op latency, ops per second, and setup_s.  --trace 1 runs the
   same workload with spans around the calls into each layer and reports
   each layer's share of op time, the CPU time per op of the processes
   doing the work, and the hit rate of the cache the workload relies on. *)

module S = Specrepair
module Alloy = Specrepair_alloy
module Session = Specrepair_engine.Session
module Json = Specrepair_serve.Json

let workload = ref ""
let seed = ref 0
let seconds = ref 10.
let trace = ref false

let now_ms () = Int64.to_float (Session.now_ns ()) /. 1e6

let timed f =
  let t0 = now_ms () in
  let r = f () in
  (r, now_ms () -. t0)

(* Scratch files (the daemon socket and telemetry) stay inside the
   checkout and are named relative to it: a Unix socket path is limited to
   about 100 bytes, which an absolute checkout path can exceed. *)
let run_dir = Filename.concat "perfbench" ".run"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* linear interpolation between closest ranks *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let r = p *. float_of_int (Array.length a - 1) in
      let lo = int_of_float r in
      let hi = min (Array.length a - 1) (lo + 1) in
      a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let domains = Array.of_list S.Benchmarks.Domains.all

(* The specs a workload draws are fixed by [corpus_seed]; --seed only
   orders the work.  Runs differ in sequence, not in content, so the
   run-to-run spread measures the program rather than the draw. *)
let corpus_seed = 42

(* A faulty variant of [d] at an index far past the domain's Table I
   count: a fresh fault stream the program has not seen before. *)
let fresh_variant rng d =
  S.Benchmarks.Generate.variant_at ~seed:corpus_seed d
    (Random.State.int rng 1_000_000)

(* {1 Trace accounting}

   Exclusive milliseconds per layer, summed over the run and reported with
   --trace 1 only.  A layer's share is taken of [traced_ms], the op time
   the spans partition:

     frontend   lex, parse and elaborate spec source
     typecheck  type checking
     faultloc   fault localization (session phase timer)
     mutation   mutation and template space construction (phase timer)
     llm        simulated-LLM sampling with its self-checks (phase timer)
     check      the rest of the repair engines' time: candidate checking
                through the oracle, translation and SAT solving
     metrics    study-row scoring outside the engine (REP, Token Match,
                Syntax Match) and session set-up
     daemon     serve requests inside the daemon, queueing included
     plumbing   the client's socket round trip around the daemon's time

   The session layers run inside the daemon's workers on serve, where the
   benchmark sees only the daemon's per-request times; there they read 0
   and [daemon] holds all of that work.

   [cpu_ms] is the CPU time of the processes doing the work: the benchmark
   process over the measured loop, or on serve the daemon and its workers
   over the daemon's life.  [cache_hits]/[cache_lookups] count the cache
   the workload relies on: the oracle's verdict cache (session telemetry)
   in-process, the daemon's warm-session registry (its status counters)
   on serve. *)

let layer_names =
  [
    "frontend"; "typecheck"; "faultloc"; "mutation"; "llm"; "check"; "metrics";
    "daemon"; "plumbing";
  ]

let layer_ms : (string, float) Hashtbl.t = Hashtbl.create 16
let traced_ms = ref 0.
let cpu_ms = ref 0.
let cache_hits = ref 0.
let cache_lookups = ref 0.

let bump tbl key v =
  Hashtbl.replace tbl key
    (v +. Option.value ~default:0. (Hashtbl.find_opt tbl key))

let tally tbl key = Option.value ~default:0. (Hashtbl.find_opt tbl key)

(* Fold one [Session.telemetry_json] line into the tables.  The engine's
   phase timers are layers of their own; the rest of [engine_ms] (by
   default the session's elapsed time) is candidate checking.  Returns the
   session's elapsed milliseconds. *)
let absorb_session ?engine_ms line =
  match Json.parse line with
  | Error (pos, msg) ->
      failwith
        (Printf.sprintf "telemetry line unparsable at byte %d: %s" pos msg)
  | Ok j ->
      let num obj key = Option.value ~default:0. (Json.mem_num key obj) in
      let sub key = Option.value ~default:(Json.Obj []) (Json.member key j) in
      let phases = sub "phases" and oracle = sub "oracle" in
      let elapsed = num j "elapsed_ms" in
      let in_phases =
        List.fold_left
          (fun acc phase ->
            let ms = num phases phase in
            bump layer_ms phase ms;
            acc +. ms)
          0. [ "faultloc"; "mutation"; "llm" ]
      in
      bump layer_ms "check"
        (Option.value engine_ms ~default:elapsed -. in_phases);
      let hits = num oracle "verdict_hits" in
      cache_hits := !cache_hits +. hits;
      cache_lookups := !cache_lookups +. hits +. num oracle "verdict_misses";
      elapsed

(* {1 Set-up and the measured loop} *)

(* [f ()] in a forked child, which starts from a copy of this process's
   state and hands its result back marshalled over a pipe. *)
let in_fork f =
  let r, w = Unix.pipe () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let code =
        match f () with
        | v ->
            let oc = Unix.out_channel_of_descr w in
            Marshal.to_channel oc v [];
            close_out oc;
            0
        | exception e ->
            prerr_endline
              ("perfbench: forked child failed: " ^ Printexc.to_string e);
            2
      in
      Unix._exit code
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v = try Some (Marshal.from_channel ic) with End_of_file -> None in
      close_in ic;
      match (Unix.waitpid [] pid, v) with
      | (_, Unix.WEXITED 0), Some v -> v
      | _ -> failwith "a forked child failed")

(* Set-up runs sixteen times in forked children, each starting from the
   parent's still-cold state (empty memo tables, no daemon), then once in
   the parent, which keeps what it built.  Workloads prepare their inputs
   before this, so only program set-up is timed.  A single set-up is short
   enough to run whole on a contended or an uncontended CPU, so the
   samples fall in two clusters whose mix changes from run to run;
   setup_s is the mean of the middle half of the seventeen samples, which
   moves smoothly with that mix where the median would jump between the
   clusters. *)
let measured_setup ~teardown setup =
  (* each timing starts from an empty minor heap and a finished major cycle *)
  let timed_setup () =
    Gc.full_major ();
    timed setup
  in
  let in_child () =
    in_fork (fun () ->
        let state, ms = timed_setup () in
        teardown state;
        ms)
  in
  let samples = List.init 16 (fun _ -> in_child ()) in
  let state, ms = timed_setup () in
  let sorted = Array.of_list (List.sort compare (ms :: samples)) in
  let n = Array.length sorted in
  let middle = Array.sub sorted (n / 4) (n - (2 * (n / 4))) in
  let mean = Array.fold_left ( +. ) 0. middle /. float_of_int (Array.length middle) in
  (state, mean /. 1000.)

(* this process and its reaped children *)
let process_cpu_ms () =
  let t = Unix.times () in
  1000. *. (t.tms_utime +. t.tms_stime +. t.tms_cutime +. t.tms_cstime)

(* Run [step] until the budget is spent (a step started before the
   deadline completes; a step is a whole pass of ops); returns the loop's
   wall-clock seconds and sets [cpu_ms] to the CPU time the loop took. *)
let for_seconds step =
  let c0 = process_cpu_ms () in
  let t0 = now_ms () in
  while now_ms () -. t0 < !seconds *. 1000. do
    step ()
  done;
  let wall_s = (now_ms () -. t0) /. 1000. in
  cpu_ms := process_cpu_ms () -. c0;
  wall_s

type outcome = {
  latencies : float list;  (** ms, one per completed op *)
  failed : int;  (** ops that raised or were refused *)
  wall_s : float;  (** the measured loop's wall clock *)
  setup_s : float;
  correct : bool;  (** every output passed its check *)
}

let report_failure what e =
  Printf.eprintf "perfbench: %s failed: %s\n%!" what (Printexc.to_string e)

(* {1 Workloads} *)

let row_ok (r : S.Eval.Study.spec_result) (v : S.Benchmarks.Generate.variant)
    t =
  let unit_interval x = x >= 0. && x <= 1. +. 1e-9 in
  r.variant_id = v.id
  && r.technique = S.Eval.Technique.name t
  && (r.rep = 0 || r.rep = 1)
  && unit_interval r.tm && unit_interval r.sm

let study () =
  let rng = Random.State.make [| !seed |] in
  (* A pass: one fresh variant per domain under half of the twelve
     techniques, in a checkerboard, so each technique meets nine domains
     and each domain six techniques: 108 rows.  Each pass runs in a forked
     child from the state set-up leaves, as a fresh [evaluate] process
     would, in an order the seed draws.  The study shares one oracle per
     domain across rows, so rows get cheaper as a pass goes on; the loop
     runs whole passes, so every run does the same work. *)
  let corpus = Random.State.make [| corpus_seed |] in
  let rows =
    Array.to_list domains
    |> List.mapi (fun j d ->
           let v = fresh_variant corpus d in
           List.filteri (fun i _ -> (i + j) mod 2 = 0) S.Eval.Technique.all
           |> List.map (fun t -> (v, t)))
    |> List.concat |> Array.of_list
  in
  (* set-up builds the AUnit suites ARepair and ICEBAR score against,
     which the study memoizes per domain *)
  let setup () =
    Array.iter (fun d -> ignore (S.Eval.Study.aunit_suite d)) domains
  in
  let (), setup_s = measured_setup ~teardown:ignore setup in
  (* in the child: the pass's row latencies, failures and checks, and its
     trace accounting *)
  let run_pass order =
    Hashtbl.reset layer_ms;
    traced_ms := 0.;
    cache_hits := 0.;
    cache_lookups := 0.;
    let latencies = ref [] and failed = ref 0 and correct = ref true in
    let first_rows = ref [] in
    Array.iteri
      (fun k (v, t) ->
        let line = ref None in
        let telemetry =
          if !trace then Some (fun l -> line := Some l) else None
        in
        match timed (fun () -> S.Eval.Study.run_one ?telemetry t v) with
        | r, ms ->
            latencies := ms :: !latencies;
            if not (row_ok r v t) then correct := false;
            if k < 3 then first_rows := (v, t, r) :: !first_rows;
            Option.iter
              (fun l ->
                let elapsed = absorb_session l in
                bump layer_ms "metrics" (ms -. elapsed);
                traced_ms := !traced_ms +. ms)
              !line
        | exception e ->
            incr failed;
            report_failure "study row" e)
      order;
    (* rows are deterministic: recomputing one against the now-warm caches
       must reproduce it exactly *)
    List.iter
      (fun (v, t, r) ->
        let again = S.Eval.Study.run_one t v in
        if
          S.Eval.Study.to_csv ~timings:false [ again ]
          <> S.Eval.Study.to_csv ~timings:false [ r ]
        then correct := false)
      !first_rows;
    ( !latencies,
      !failed,
      !correct,
      List.of_seq (Hashtbl.to_seq layer_ms),
      (!traced_ms, !cache_hits, !cache_lookups) )
  in
  let latencies = ref [] and failed = ref 0 and correct = ref true in
  let wall_s =
    for_seconds (fun () ->
        let order = Array.copy rows in
        shuffle rng order;
        let lat, f, ok, layers, (traced, hits, lookups) =
          in_fork (fun () -> run_pass order)
        in
        latencies := List.rev_append lat !latencies;
        failed := !failed + f;
        if not ok then correct := false;
        List.iter (fun (layer, ms) -> bump layer_ms layer ms) layers;
        traced_ms := !traced_ms +. traced;
        cache_hits := !cache_hits +. hits;
        cache_lookups := !cache_lookups +. lookups)
  in
  {
    latencies = !latencies;
    failed = !failed;
    wall_s;
    setup_s;
    correct = !correct;
  }

(* A repair the tool claims is re-derived independently: the final spec
   must type-check and pass every command on a fresh oracle. *)
let repair_ok (r : S.Repair.Common.result) =
  match Alloy.Typecheck.check_result r.final_spec with
  | Error _ -> false
  | Ok env ->
      (not r.repaired)
      || S.Repair.Common.oracle_passes (S.Repair.Session.create env) env

let cold_repair () =
  (* input i: the domains in turn, as the source text a user would submit;
     the run repairs a pool of 72 of them (four per domain), each through a
     fresh session; a repeated input must repair to the same spec *)
  let input i =
    let d = domains.(i mod Array.length domains) in
    let v = fresh_variant (Random.State.make [| corpus_seed; i |]) d in
    (v.id ^ ".als", Alloy.Pretty.source v.injected.faulty)
  in
  let repair (file, src) =
    let spec, frontend_ms =
      timed (fun () ->
          (Alloy.Elab.spec (Alloy.Parser.parse_surface ~file src))
            .Alloy.Elab.spec)
    in
    let env, typecheck_ms =
      timed (fun () ->
          match Alloy.Typecheck.check_named spec with
          | Ok env -> env
          | Error (_, msg) -> failwith ("typecheck: " ^ msg))
    in
    let (session, (result, _stage)), engine_ms =
      timed (fun () ->
          let session = S.Repair.Session.create env in
          let task =
            S.Llm.Task.make ~spec_id:file ~domain:"cli"
              ~faulty:env.Alloy.Typecheck.spec ()
          in
          (session, S.Eval.Portfolio.repair ~session task))
    in
    (result, session, frontend_ms, typecheck_ms, engine_ms)
  in
  let pool = Array.init 72 input in
  let rng = Random.State.make [| !seed |] in
  (* set-up: repairs of six inputs outside the pool, so that lazily built
     program state is in place before timing *)
  let warm_up = List.init 6 (fun i -> input (1_000_000 + i)) in
  let (), setup_s =
    measured_setup ~teardown:ignore (fun () ->
        List.iter (fun x -> ignore (repair x)) warm_up)
  in
  let latencies = ref [] and failed = ref 0 and correct = ref true in
  (* input index -> its first repair, as (repaired, final spec text) *)
  let first = Hashtbl.create 72 in
  let check i (result : S.Repair.Common.result) =
    let outcome =
      (result.repaired, Alloy.Pretty.spec_to_string result.final_spec)
    in
    match Hashtbl.find_opt first i with
    | None ->
        Hashtbl.replace first i outcome;
        if not (repair_ok result) then correct := false
    | Some o -> if o <> outcome then correct := false
  in
  (* the loop runs whole passes over the pool, each in a fresh seeded
     order, so every run does the same work *)
  let wall_s =
    for_seconds (fun () ->
        let order = Array.init (Array.length pool) Fun.id in
        shuffle rng order;
        Array.iter
          (fun i ->
            match timed (fun () -> repair pool.(i)) with
            | (result, session, frontend_ms, typecheck_ms, engine_ms), ms ->
                latencies := ms :: !latencies;
                check i result;
                if !trace then begin
                  bump layer_ms "frontend" frontend_ms;
                  bump layer_ms "typecheck" typecheck_ms;
                  ignore
                    (absorb_session ~engine_ms
                       (Session.telemetry_json session));
                  traced_ms := !traced_ms +. ms
                end
            | exception e ->
                incr failed;
                report_failure "repair" e)
          order)
  in
  {
    latencies = !latencies;
    failed = !failed;
    wall_s;
    setup_s;
    correct = !correct;
  }

type daemon = {
  pid : int;
  telemetry_path : string;
  cpu_path : string;
  conn : S.Serve.Client.conn;
}

let status_line =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Str "status");
         ("method", Json.Str "status");
         ("params", Json.Obj []);
       ])

let ask conn line =
  match S.Serve.Client.roundtrip conn line with
  | Ok reply when S.Serve.Protocol.reply_is_ok reply -> reply
  | Ok reply -> failwith ("serve: request refused: " ^ reply)
  | Error msg -> failwith ("serve: " ^ msg)

(* Fork a daemon in its default configuration on a socket under [run_dir]
   and return once it has answered a status request.  With --trace 1 the
   daemon logs per-request telemetry and, once it has shut down and reaped
   its workers, writes the CPU milliseconds it and they used. *)
let start_daemon () =
  let tag = Printf.sprintf "serve-%d" (Unix.getpid ()) in
  let sock = Filename.concat run_dir (tag ^ ".sock") in
  let telemetry_path = Filename.concat run_dir (tag ^ ".jsonl") in
  let cpu_path = Filename.concat run_dir (tag ^ ".cpu") in
  rm_rf telemetry_path;
  rm_rf cpu_path;
  flush_all ();
  let pid =
    match Unix.fork () with
    | 0 ->
        (* the daemon's status lines must not reach the result stream *)
        Unix.dup2 Unix.stderr Unix.stdout;
        let config =
          {
            S.Serve.Daemon.default_config with
            socket = Some sock;
            telemetry = (if !trace then Some telemetry_path else None);
          }
        in
        let code =
          match S.Serve.Daemon.run config with () -> 0 | exception _ -> 2
        in
        if !trace then begin
          let t = Unix.times () in
          Out_channel.with_open_bin cpu_path (fun oc ->
              Printf.fprintf oc "%.17g"
                (1000.
                *. (t.tms_utime +. t.tms_stime +. t.tms_cutime +. t.tms_cstime)))
        end;
        Unix._exit code
    | pid -> pid
  in
  let rec connect tries =
    match S.Serve.Client.connect (S.Serve.Client.Unix_sock sock) with
    | Ok conn -> conn
    | Error msg ->
        if tries = 0 then failwith ("serve: the daemon never listened: " ^ msg);
        Unix.sleepf 0.002;
        connect (tries - 1)
  in
  let conn = connect 5000 in
  ignore (ask conn status_line);
  { pid; telemetry_path; cpu_path; conn }

let stop_daemon d =
  S.Serve.Client.close d.conn;
  Unix.kill d.pid Sys.sigterm;
  match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "serve: the daemon did not shut down cleanly"

let discard_daemon d =
  stop_daemon d;
  rm_rf d.telemetry_path;
  rm_rf d.cpu_path

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i =
    if i + m > n then None else if matches i 0 then Some i else go (i + 1)
  in
  go 0

(* a reply with its warmth flag set to cold, for comparing repeats *)
let cold_form reply =
  let hot = {|"warm":true|} in
  match find_sub reply hot with
  | None -> reply
  | Some i ->
      let rest = i + String.length hot in
      String.sub reply 0 i ^ {|"warm":false|}
      ^ String.sub reply rest (String.length reply - rest)

let serve () =
  (* Repair requests with the protocol's default tool (BeAFix, as in the
     README's client example), each spec once cold and then [repeats]
     times warm, the pattern of the bench SERVE stage.  The specs are 96
     fresh variants, three times what the default daemon keeps warm (two
     workers x 32 registry entries), visited in a seeded order that every
     cycle repeats: the least recently used entry is evicted on every
     visit, so each visit's first request misses and one request in six is
     cold.  The loop runs whole cycles, so every run does the same work. *)
  let repeats = 5 and nspecs = 96 in
  let corpus = Random.State.make [| corpus_seed |] in
  (* distinct sources, since the daemon's cache is keyed on the source *)
  let seen = Hashtbl.create nspecs in
  let rec fresh_source d =
    let v = fresh_variant corpus d in
    let source = Alloy.Pretty.source v.injected.faulty in
    if Hashtbl.mem seen source then fresh_source d
    else begin
      Hashtbl.add seen source ();
      (v.id, source)
    end
  in
  let lines =
    Array.init nspecs (fun i ->
        let id, source = fresh_source domains.(i mod Array.length domains) in
        Json.to_string
          (Json.Obj
             [
               ("id", Json.Str id);
               ("method", Json.Str "repair");
               ( "params",
                 Json.Obj [ ("source", Json.Str source); ("file", Json.Str id) ]
               );
             ]))
  in
  let order = Array.init nspecs Fun.id in
  shuffle (Random.State.make [| !seed |]) order;
  let d, setup_s = measured_setup ~teardown:discard_daemon start_daemon in
  let latencies = ref [] and failed = ref 0 and correct = ref true in
  let first_reply = Hashtbl.create nspecs in
  let request s =
    match timed (fun () -> S.Serve.Client.roundtrip d.conn lines.(s)) with
    | Ok reply, ms when S.Serve.Protocol.reply_is_ok reply -> (
        latencies := ms :: !latencies;
        (* cold or warm, a spec's every reply is the same *)
        let reply = cold_form reply in
        match Hashtbl.find_opt first_reply s with
        | None -> Hashtbl.replace first_reply s reply
        | Some r -> if r <> reply then correct := false)
    | Ok reply, _ ->
        incr failed;
        prerr_endline ("perfbench: request refused: " ^ reply)
    | Error msg, _ ->
        incr failed;
        prerr_endline ("perfbench: request failed: " ^ msg)
  in
  let wall_s =
    for_seconds (fun () ->
        Array.iter
          (fun s ->
            for _ = 0 to repeats do
              request s
            done)
          order)
  in
  let status = ask d.conn status_line in
  stop_daemon d;
  let counter name =
    match Json.parse status with
    | Ok j -> (
        match Option.bind (Json.member "result" j) (Json.mem_num name) with
        | Some v -> v
        | None -> failwith ("serve: status lacks " ^ name))
    | Error _ -> failwith "serve: status reply is not JSON"
  in
  let hits = counter "cache_hits" and misses = counter "cache_misses" in
  (* every answered spec request is either a warm hit or a cold miss *)
  if int_of_float (hits +. misses) <> List.length !latencies then
    correct := false;
  if !trace then begin
    cache_hits := hits;
    cache_lookups := hits +. misses;
    cpu_ms := float_of_string (read_file d.cpu_path);
    let served =
      List.fold_left
        (fun acc line ->
          match Json.parse line with
          | Ok j
            when Json.mem_str "event" j = Some "reply"
                 && Json.mem_str "method" j <> Some "status" ->
              acc +. Option.value ~default:0. (Json.mem_num "ms" j)
          | _ -> acc)
        0.
        (String.split_on_char '\n' (read_file d.telemetry_path))
    in
    let round_trips = List.fold_left ( +. ) 0. !latencies in
    bump layer_ms "daemon" served;
    bump layer_ms "plumbing" (round_trips -. served);
    traced_ms := round_trips
  end;
  rm_rf d.telemetry_path;
  rm_rf d.cpu_path;
  {
    latencies = !latencies;
    failed = !failed;
    wall_s;
    setup_s;
    correct = !correct;
  }

(* {1 Result} *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result o =
  let ops = List.length o.latencies in
  let per_op v = v /. float_of_int (max 1 ops) in
  let metrics =
    if not !trace then
      [
        ("op_p50_ms", percentile 0.5 o.latencies, "ms");
        ("op_p90_ms", percentile 0.9 o.latencies, "ms");
        ("ops_per_s", float_of_int ops /. o.wall_s, "1/s");
        ("setup_s", o.setup_s, "s");
      ]
    else
      List.map
        (fun l -> (l ^ "_pct", 100. *. tally layer_ms l /. !traced_ms, "%"))
        layer_names
      @ [
          ("cpu_ms_per_op", per_op !cpu_ms, "ms");
          ("cache_hit_pct", 100. *. !cache_hits /. !cache_lookups, "%");
        ]
  in
  let field (name, v, unit_) =
    Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" name
      (json_number v) unit_
  in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    o.correct (ops + o.failed) o.failed
    (String.concat "," (List.map field metrics))

let () =
  let usage = "driver.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME study, cold-repair or serve" );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured wall-clock budget");
      ( "--trace",
        Arg.Int (fun t -> trace := t = 1),
        "0|1 report per-layer metrics" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match !workload with
    | "study" -> study
    | "cold-repair" -> cold_repair
    | "serve" -> serve
    | w ->
        prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755;
  let o = run () in
  (try Unix.rmdir run_dir with Unix.Unix_error _ -> ());
  print_result o
