(* Tests for the fault-tolerant work-stealing scheduler and the parallel
   study runner built on it: result completeness and ordering, worker-death
   recovery (SIGKILL mid-run), heartbeat kills, bounded retries, the
   byte-identity of parallel study CSVs with the sequential run, and the
   parallel study's scratch directory. *)

module B = Specrepair_benchmarks
module Eval = Specrepair_eval
module Scheduler = Eval.Scheduler
module Counters = Specrepair_json.Counters

let square ~emit:_ i = string_of_int (i * i)

(* a one-shot self-SIGKILL: the first worker to reach [item] creates the
   marker and dies; the retry sees the marker and completes normally *)
let kill_once ~mark ~item f ~emit i =
  if i = item && not (Sys.file_exists mark) then begin
    (try close_out (open_out mark) with Sys_error _ -> ());
    Unix.kill (Unix.getpid ()) Sys.sigkill
  end;
  f ~emit i

let with_marker k =
  let mark = Filename.temp_file "specrepair_sched_test_" ".mark" in
  Sys.remove mark;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists mark then Sys.remove mark)
    (fun () -> k mark)

(* Remove a flat directory and its files. *)
let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* A checkpointed run into a fresh directory, its rows read back in index
   order (the directory is removed afterwards, also on failure). *)
let map ~jobs ?max_retries ?heartbeat_timeout_ms ?emit ~f n =
  let dir = Filename.temp_dir "specrepair_sched_test_" "" in
  Fun.protect
    ~finally:(fun () -> remove_dir dir)
    (fun () ->
      let stats =
        Scheduler.map_checkpointed ~jobs ?max_retries ?heartbeat_timeout_ms
          ?emit ~dir ~fingerprint:"test" ~f n
      in
      let rows =
        Scheduler.fold_shards ~dir
          (fun acc i r ->
            Alcotest.(check int) "rows fold in index order" (List.length acc)
              i;
            r :: acc)
          []
      in
      (Array.of_list (List.rev rows), stats))

let test_map_in_order () =
  let results, stats = map ~jobs:4 ~f:square 25 in
  Alcotest.(check int) "all results" 25 (Array.length results);
  Array.iteri
    (fun i r -> Alcotest.(check string) "in order" (string_of_int (i * i)) r)
    results;
  Alcotest.(check int) "no retries" 0 (Counters.find stats "retries");
  Alcotest.(check int) "no workers lost" 0
    (Counters.find stats "workers_lost");
  Alcotest.(check int) "every row merged" 25
    (Counters.find stats "rows_completed")

let test_jobs_exceed_rows () =
  (* more workers than work items degrades gracefully *)
  let results, stats = map ~jobs:16 ~f:square 3 in
  Alcotest.(check int) "all results" 3 (Array.length results);
  Array.iteri
    (fun i r -> Alcotest.(check string) "in order" (string_of_int (i * i)) r)
    results;
  Alcotest.(check bool) "spawned at most one worker per row" true
    (Counters.find stats "workers_spawned" >= 1
    && Counters.find stats "workers_spawned" <= 3)

let test_emit_forwarded () =
  let lines = ref [] in
  let results, _ =
    map ~jobs:2
      ~emit:(fun l -> lines := l :: !lines)
      ~f:(fun ~emit i ->
        emit (Printf.sprintf "side-%d" i);
        string_of_int i)
      10
  in
  Alcotest.(check int) "all results" 10 (Array.length results);
  let expected = List.init 10 (fun i -> Printf.sprintf "side-%d" i) in
  Alcotest.(check (list string))
    "every sideband line arrives exactly once" expected
    (List.sort compare !lines)

let test_sigkill_recovery () =
  with_marker (fun mark ->
      let results, stats =
        map ~jobs:3 ~f:(kill_once ~mark ~item:7 square) 20
      in
      Alcotest.(check int) "complete despite the kill" 20 (Array.length results);
      Array.iteri
        (fun i r ->
          Alcotest.(check string) "correct row" (string_of_int (i * i)) r)
        results;
      Alcotest.(check bool) "chunk was retried" true
        (Counters.find stats "retries" > 0);
      Alcotest.(check bool) "a worker was lost" true
        (Counters.find stats "workers_lost" >= 1);
      Alcotest.(check bool) "a replacement was forked" true
        (Counters.find stats "workers_spawned" > 3))

let test_heartbeat_kills_hung_worker () =
  with_marker (fun mark ->
      let hang_once ~emit:_ i =
        if i = 2 && not (Sys.file_exists mark) then begin
          (try close_out (open_out mark) with Sys_error _ -> ());
          Unix.sleep 600
        end;
        string_of_int i
      in
      let results, stats =
        map ~jobs:2 ~heartbeat_timeout_ms:500. ~f:hang_once 6
      in
      Alcotest.(check int) "complete despite the hang" 6 (Array.length results);
      Alcotest.(check bool) "hung worker was killed" true
        (Counters.find stats "heartbeat_kills" >= 1);
      Alcotest.(check bool) "its chunk was retried" true
        (Counters.find stats "retries" > 0))

let test_retry_exhaustion_names_rows () =
  (* item 3 kills its worker on every attempt: the chunk must exhaust its
     retry budget and surface the offending rows *)
  let always_kill ~emit:_ i =
    if i = 3 then Unix.kill (Unix.getpid ()) Sys.sigkill;
    string_of_int i
  in
  match map ~jobs:4 ~max_retries:1 ~f:always_kill 4 with
  | _ -> Alcotest.fail "expected Chunk_failed"
  | exception Scheduler.Chunk_failed { indices; attempts; reason } ->
      Alcotest.(check bool) "names the offending row" true
        (List.mem 3 indices);
      Alcotest.(check int) "attempts = initial + retry" 2 attempts;
      Alcotest.(check bool) "reason mentions the worker" true (reason <> "")

(* {2 The study runner on top of the scheduler} *)

let sample_variants = lazy (B.Generate.sample ~per_domain:1 ())

let test_study_parallel_bit_identical () =
  (* the acceptance bar: --sample 1 --jobs 4 CSV byte-identical to --jobs 1
     across all twelve techniques, modulo the wall-clock time_ms column *)
  let variants = Lazy.force sample_variants in
  let seq = Eval.Study.run variants in
  let stats = ref None in
  let par =
    Eval.Study.run ~jobs:4 ~on_stats:(fun s -> stats := Some s)
      variants
  in
  Alcotest.(check string) "csv byte-identical (timings zeroed)"
    (Eval.Study.to_csv ~timings:false seq)
    (Eval.Study.to_csv ~timings:false par);
  (* an undisturbed run: every row merged, no chunk requeued *)
  match !stats with
  | None -> Alcotest.fail "on_stats never called"
  | Some s ->
      Alcotest.(check int) "no retries" 0 (Counters.find s "retries");
      Alcotest.(check int) "no worker lost" 0 (Counters.find s "workers_lost");
      Alcotest.(check int) "every row merged" (List.length par)
        (Counters.find s "rows_completed");
      let n = Counters.find s in
      Alcotest.(check bool) "1 <= chunks completed <= chunks dispatched" true
        (1 <= n "chunks_completed"
        && n "chunks_completed" <= n "chunks_dispatched");
      Alcotest.(check bool) "a worker was spawned" true
        (n "workers_spawned" >= 1)

let test_study_parallel_survives_sigkill () =
  let variants = Lazy.force sample_variants in
  let techniques = [ Eval.Technique.ATR; Eval.Technique.BeAFix ] in
  let seq = Eval.Study.run ~techniques variants in
  let telemetry_lines = ref [] in
  let stats = ref None in
  let par =
    with_marker (fun mark ->
        Unix.putenv "SPECREPAIR_SCHED_KILL_ITEM" "5";
        Unix.putenv "SPECREPAIR_SCHED_KILL_MARK" mark;
        Fun.protect
          ~finally:(fun () ->
            Unix.putenv "SPECREPAIR_SCHED_KILL_ITEM" "";
            Unix.putenv "SPECREPAIR_SCHED_KILL_MARK" "")
          (fun () ->
            Eval.Study.run ~jobs:4 ~techniques
              ~telemetry:(fun l -> telemetry_lines := l :: !telemetry_lines)
              ~on_stats:(fun s -> stats := Some s)
              variants))
  in
  Alcotest.(check string) "rows byte-identical despite the SIGKILL"
    (Eval.Study.to_csv ~timings:false seq)
    (Eval.Study.to_csv ~timings:false par);
  (match !stats with
  | None -> Alcotest.fail "on_stats never called"
  | Some s ->
      Alcotest.(check bool) "retries > 0 in telemetry" true
        (Counters.find s "retries" > 0);
      Alcotest.(check bool) "a worker was lost" true
        (Counters.find s "workers_lost" >= 1));
  (* one telemetry line per row plus the final scheduler summary *)
  let n_rows = List.length seq in
  Alcotest.(check int) "one telemetry line per row + summary" (n_rows + 1)
    (List.length !telemetry_lines);
  let summary = List.hd !telemetry_lines in
  Alcotest.(check bool) "summary is the scheduler line" true
    (String.length summary >= 14 && String.sub summary 0 14 = "{\"scheduler\":{")

(* A parallel study's rows live in a scratch run directory under the temp
   directory; it must be gone afterwards, whether the run completed or
   ended in Chunk_failed. *)
let test_study_parallel_removes_scratch () =
  let tmp = Filename.temp_dir "specrepair_sched_tmpdir_" "" in
  let saved = Filename.get_temp_dir_name () in
  Filename.set_temp_dir_name tmp;
  Fun.protect
    ~finally:(fun () ->
      Filename.set_temp_dir_name saved;
      remove_dir tmp)
    (fun () ->
      let variants = [ List.hd (Lazy.force sample_variants) ] in
      let techniques = [ Eval.Technique.ATR; Eval.Technique.BeAFix ] in
      let rows = Eval.Study.run ~jobs:2 ~techniques variants in
      Alcotest.(check int) "every row" 2 (List.length rows);
      Alcotest.(check (array string)) "nothing left after success" [||]
        (Sys.readdir tmp);
      (* the marker's directory does not exist, so every attempt at row 1
         kills its worker *)
      Unix.putenv "SPECREPAIR_SCHED_KILL_ITEM" "1";
      Unix.putenv "SPECREPAIR_SCHED_KILL_MARK"
        (Filename.concat tmp "missing/mark");
      Fun.protect
        ~finally:(fun () ->
          Unix.putenv "SPECREPAIR_SCHED_KILL_ITEM" "";
          Unix.putenv "SPECREPAIR_SCHED_KILL_MARK" "")
        (fun () ->
          match Eval.Study.run ~jobs:2 ~max_retries:0 ~techniques variants with
          | _ -> Alcotest.fail "expected Chunk_failed"
          | exception Scheduler.Chunk_failed { indices; _ } ->
              Alcotest.(check bool) "names the killed row" true
                (List.mem 1 indices));
      Alcotest.(check (array string)) "nothing left after Chunk_failed" [||]
        (Sys.readdir tmp))

(* {2 Strict CSV parsing} *)

let csv_header = "variant_id,domain,benchmark,technique,rep,tm,sm,tool_claimed,time_ms"

let test_of_csv_roundtrip_tolerates_noise () =
  let text =
    csv_header ^ "\n\n" ^ "v1,classroom,A4F,ATR,1,0.500000,0.250000,true,1.500\n"
    ^ csv_header ^ "\n" (* repeated header (concatenated caches) is fine *)
    ^ "v2,student,ARepair,BeAFix,0,0.000000,1.000000,false,0.125\n"
  in
  match Eval.Study.of_csv text with
  | [ a; b ] ->
      Alcotest.(check string) "first row" "v1" a.Eval.Study.variant_id;
      Alcotest.(check bool) "benchmark parsed" true
        (b.Eval.Study.benchmark = B.Domains.ARepair_bench)
  | rows -> Alcotest.fail (Printf.sprintf "expected 2 rows, got %d" (List.length rows))

let expect_failure what text =
  match Eval.Study.of_csv text with
  | _ -> Alcotest.fail (what ^ ": expected Failure")
  | exception Failure msg ->
      Alcotest.(check bool) (what ^ ": error names of_csv") true
        (String.length msg >= 12 && String.sub msg 0 12 = "Study.of_csv")

let test_of_csv_rejects_malformed () =
  (* a worker killed mid-write must not silently shed rows *)
  expect_failure "truncated row"
    (csv_header ^ "\nv1,classroom,A4F,ATR,1,0.5");
  expect_failure "unknown benchmark"
    (csv_header ^ "\nv1,classroom,BOGUS,ATR,1,0.5,0.5,true,1.0");
  expect_failure "unparsable field"
    (csv_header ^ "\nv1,classroom,A4F,ATR,one,0.5,0.5,true,1.0")

let () =
  Alcotest.run "scheduler"
    [
      ( "map",
        [
          Alcotest.test_case "results in order" `Quick test_map_in_order;
          Alcotest.test_case "jobs > rows" `Quick test_jobs_exceed_rows;
          Alcotest.test_case "sideband lines forwarded" `Quick
            test_emit_forwarded;
        ] );
      ( "faults",
        [
          Alcotest.test_case "sigkill recovery" `Quick test_sigkill_recovery;
          Alcotest.test_case "heartbeat kill" `Quick
            test_heartbeat_kills_hung_worker;
          Alcotest.test_case "retry exhaustion names rows" `Quick
            test_retry_exhaustion_names_rows;
        ] );
      ( "study",
        [
          Alcotest.test_case "jobs 4 bit-identical" `Slow
            test_study_parallel_bit_identical;
          Alcotest.test_case "survives sigkill" `Slow
            test_study_parallel_survives_sigkill;
          Alcotest.test_case "scratch dir removed" `Slow
            test_study_parallel_removes_scratch;
        ] );
      ( "csv",
        [
          Alcotest.test_case "round trip with noise" `Quick
            test_of_csv_roundtrip_tolerates_noise;
          Alcotest.test_case "malformed rows fail loudly" `Quick
            test_of_csv_rejects_malformed;
        ] );
    ]
