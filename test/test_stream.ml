(* The crash-recovery battery for streaming studies: the on-demand corpus
   must be bit-identical to the materialized one, a SIGKILLed checkpointed
   run resumed with [--resume] must merge to the same CSV as an
   uninterrupted run, and an untrustworthy checkpoint (truncated manifest,
   tampered shard, foreign fingerprint) must be rejected loudly — never
   silently re-run or silently skipped. *)

module Alloy = Specrepair_alloy
module B = Specrepair_benchmarks
module Eval = Specrepair_eval
module Stream = Eval.Corpus_stream
module Manifest = Eval.Manifest
module Counters = Specrepair_json.Counters

let seed = 42

(* (global offset, domain) in stream order, reconstructed from the public
   corpus contract: A4F domains then ARepair domains, each in
   [Domains.all] order, each contributing [count] rows *)
let offsets =
  lazy
    (let by bench =
       List.filter (fun (d : B.Domains.t) -> d.benchmark = bench) B.Domains.all
     in
     let ds = by B.Domains.A4F @ by B.Domains.ARepair_bench in
     List.rev
       (fst
          (List.fold_left
             (fun (acc, off) (d : B.Domains.t) ->
               ((off, d) :: acc, off + d.count))
             ([], 0) ds)))

let offset_of (d : B.Domains.t) =
  fst (List.find (fun (_, d') -> d' == d) (Lazy.force offsets))

let key (v : B.Generate.variant) =
  (* id + faulty source pins the whole derivation: same mutation stream,
     same sites, same spec *)
  (v.id, Digest.string (Alloy.Pretty.spec_to_string v.injected.B.Fault.faulty))

(* {2 Corpus identity} *)

let test_natural_total () =
  Alcotest.(check int)
    "natural total = Table I corpus"
    (B.Domains.total_count B.Domains.A4F
    + B.Domains.total_count B.Domains.ARepair_bench)
    (Stream.natural_total ())

let test_stream_matches_materialized () =
  (* cheap cross-section: one mid-corpus A4F domain plus the first ARepair
     domains, i.e. global indices that straddle the benchmark boundary *)
  let chosen =
    List.filter
      (fun (d : B.Domains.t) ->
        d.count <= 61 || d.benchmark = B.Domains.ARepair_bench)
      B.Domains.all
  in
  Alcotest.(check bool) "cross-section is non-trivial" true
    (List.length chosen >= 3);
  List.iter
    (fun (d : B.Domains.t) ->
      let materialized = List.map key (B.Generate.variants ~seed d) in
      let streamed = ref [] in
      let off = offset_of d in
      Stream.iter ~seed ~lo:off ~hi:(off + d.count) (fun _ v ->
          streamed := key v :: !streamed);
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "domain %s bit-identical" d.name)
        materialized
        (List.rev !streamed))
    chosen

let test_epoch_wrap () =
  let total = Stream.natural_total () in
  let d = List.hd B.Domains.all in
  let i = offset_of d in
  let v0 = Stream.variant ~seed i in
  let v1 = Stream.variant ~seed (i + total) in
  let v2 = Stream.variant ~seed (i + (2 * total)) in
  Alcotest.(check string) "epoch 0 is the materialized variant"
    (B.Generate.variant_at ~seed d 0).id v0.id;
  Alcotest.(check string) "epoch 1 stays in the same domain" d.name
    v1.domain.name;
  Alcotest.(check bool) "epochs are distinct variants" true
    (v0.id <> v1.id && v1.id <> v2.id);
  (* deterministic: the same global index always derives the same row *)
  Alcotest.(check (pair string string))
    "epoch 1 is deterministic" (key v1)
    (key (Stream.variant ~seed (i + total)))

let test_custom_source () =
  let produced = ref [] in
  let src =
    Stream.Custom
      {
        name = "counting";
        produce =
          (fun ~seed i ->
            produced := (seed, i) :: !produced;
            B.Generate.variant_at ~seed (List.hd B.Domains.all) i);
      }
  in
  Alcotest.(check string) "name flows into fingerprints" "counting"
    (Stream.source_name src);
  let v = Stream.variant ~source:src ~seed:7 3 in
  Alcotest.(check (list (pair int int)))
    "produce called with the caller's seed and index" [ (7, 3) ] !produced;
  Alcotest.(check string) "the produced variant comes back" v.id
    (B.Generate.variant_at ~seed:7 (List.hd B.Domains.all) 3).id

(* {2 Crash + resume} *)

let with_tmpdir k =
  let dir = Filename.temp_file "specrepair_stream_" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then (
      Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p)
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> k dir)

let techniques = [ Eval.Technique.ATR; Eval.Technique.BeAFix ]
let total = 6

let run_stream ?(resume = false) ~dir () =
  Eval.Study.run_stream ~seed ~techniques ~jobs:2 ~progress:ignore ~resume
    ~dir ~total ()

let merged_csv dir =
  let tmp = Filename.temp_file "specrepair_merged_" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      let n = Eval.Study.write_stream_csv ~timings:false ~dir oc in
      close_out oc;
      let ic = open_in_bin tmp in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (n, text))

(* run the study in a forked child with the crash hook armed: the child's
   scheduler SIGKILLs its own process after [after] checkpointed chunks,
   exactly the mid-study `kill -9` an overnight run has to survive *)
let crash_study ~after ~dir =
  match Unix.fork () with
  | 0 ->
      (try
         Unix.putenv "SPECREPAIR_SCHED_CRASH_AFTER_CHUNKS" (string_of_int after);
         ignore (run_stream ~dir ())
       with _ -> ());
      (* reaching here means the chaos hook never fired *)
      Unix._exit 10
  | pid -> snd (Unix.waitpid [] pid)

let test_crash_then_resume_is_byte_identical () =
  with_tmpdir (fun crashed ->
      with_tmpdir (fun clean ->
          (match crash_study ~after:1 ~dir:crashed with
          | Unix.WSIGNALED sg when sg = Sys.sigkill -> ()
          | status ->
              Alcotest.failf "expected a self-SIGKILL, child got %s"
                (match status with
                | Unix.WEXITED c -> Printf.sprintf "exit %d" c
                | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
                | Unix.WSTOPPED s -> Printf.sprintf "stop %d" s));
          (* the wreckage is a real checkpoint: some rows recorded, not all *)
          let m = Manifest.load ~dir:crashed in
          let items = total * List.length techniques in
          Alcotest.(check int) "manifest total = work items" items
            m.Manifest.total;
          Alcotest.(check bool) "crash left a partial checkpoint" true
            (Manifest.rows_done m >= 1 && not (Manifest.is_complete m));
          (* resume computes only the pending rows, to completion *)
          let stats = run_stream ~resume:true ~dir:crashed () in
          Alcotest.(check bool) "resume did not redo finished rows" true
            (Counters.find stats "rows_completed" < items);
          (* the uninterrupted reference run additionally loses a worker to
             the scheduler chaos hook from test_scheduler.ml *)
          let mark = Filename.temp_file "specrepair_stream_kill_" ".mark" in
          Sys.remove mark;
          Unix.putenv "SPECREPAIR_SCHED_KILL_ITEM" "3";
          Unix.putenv "SPECREPAIR_SCHED_KILL_MARK" mark;
          Fun.protect
            ~finally:(fun () ->
              Unix.putenv "SPECREPAIR_SCHED_KILL_ITEM" "";
              Unix.putenv "SPECREPAIR_SCHED_KILL_MARK" "";
              if Sys.file_exists mark then Sys.remove mark)
            (fun () -> ignore (run_stream ~dir:clean ()));
          let n_crashed, csv_crashed = merged_csv crashed in
          let n_clean, csv_clean = merged_csv clean in
          Alcotest.(check int) "all rows merged" items n_crashed;
          Alcotest.(check int) "reference has all rows too" items n_clean;
          Alcotest.(check string)
            "crash+resume CSV byte-identical to the uninterrupted run"
            csv_clean csv_crashed;
          (* and both equal the plain in-memory sequential study *)
          let variants = List.init total (Stream.variant ~seed) in
          Alcotest.(check string)
            "streamed CSV byte-identical to the sequential study"
            (Eval.Study.to_csv ~timings:false
               (Eval.Study.run ~seed ~techniques variants))
            csv_crashed))

let test_resume_rejects_foreign_fingerprint () =
  with_tmpdir (fun dir ->
      ignore (run_stream ~dir ());
      let corrupt f =
        match f () with
        | _ -> Alcotest.fail "expected Manifest.Corrupt"
        | exception Manifest.Corrupt msg ->
            Alcotest.(check bool) "error names the fingerprint" true
              (String.length msg > 0)
      in
      (* same directory, different run parameters: must refuse to mix *)
      corrupt (fun () ->
          Eval.Study.run_stream ~seed:(seed + 1) ~techniques ~jobs:2
            ~progress:ignore ~resume:true ~dir ~total ());
      corrupt (fun () ->
          Eval.Study.run_stream ~seed ~techniques:[ Eval.Technique.ATR ]
            ~jobs:2 ~progress:ignore ~resume:true ~dir ~total ()))

let test_fresh_run_refuses_existing_checkpoint () =
  with_tmpdir (fun dir ->
      ignore (run_stream ~dir ());
      match run_stream ~dir () with
      | _ -> Alcotest.fail "expected Checkpoint_exists on a dirty run directory"
      | exception Eval.Scheduler.Checkpoint_exists { dir = d; rows } ->
          Alcotest.(check string) "names the directory" dir d;
          Alcotest.(check int) "counts its rows" (total * List.length techniques)
            rows)

(* {2 Manifest trust} *)

let test_manifest_roundtrip_and_pending () =
  let m = Manifest.create ~fingerprint:"fp|x" ~total:10 in
  let m = Manifest.add m ~lo:7 ~hi:10 in
  let m = Manifest.add m ~lo:0 ~hi:3 in
  Alcotest.(check int) "rows done" 6 (Manifest.rows_done m);
  Alcotest.(check bool) "not complete" false (Manifest.is_complete m);
  Alcotest.(check (list (pair int int)))
    "pending = complement" [ (3, 7) ] (Manifest.pending m);
  with_tmpdir (fun dir ->
      Manifest.save ~dir m;
      let m' = Manifest.load ~dir in
      Alcotest.(check string) "fingerprint survives" m.Manifest.fingerprint
        m'.Manifest.fingerprint;
      Alcotest.(check (list (pair int int)))
        "ranges survive, sorted, uncoalesced"
        [ (0, 3); (7, 10) ]
        m'.Manifest.completed);
  (* the codec carries any fingerprint byte for byte: a carriage return,
     UTF-8 and a control byte included *)
  List.iter
    (fun fingerprint ->
      with_tmpdir (fun dir ->
          Manifest.save ~dir
            (Manifest.add (Manifest.create ~fingerprint ~total:4) ~lo:0 ~hi:2);
          Alcotest.(check string)
            (Printf.sprintf "fingerprint %S survives" fingerprint)
            fingerprint (Manifest.load ~dir).Manifest.fingerprint))
    [ "a\rb"; "caf\xc3\xa9"; "a\001b" ];
  (match Manifest.add m ~lo:2 ~hi:4 with
  | _ -> Alcotest.fail "overlap must be Invalid_argument"
  | exception Invalid_argument _ -> ());
  let m = Manifest.add m ~lo:3 ~hi:7 in
  Alcotest.(check bool) "complete once the gap closes" true
    (Manifest.is_complete m);
  Alcotest.(check (list (pair int int))) "nothing pending" [] (Manifest.pending m)

let contains sub s =
  let k = String.length sub and n = String.length s in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let expect_corrupt ?(naming = "") what text =
  with_tmpdir (fun dir ->
      (match text with
      | Some t ->
          let oc = open_out (Manifest.path ~dir) in
          output_string oc t;
          close_out oc
      | None -> () (* missing file *));
      match Manifest.load ~dir with
      | _ -> Alcotest.fail (what ^ ": expected Manifest.Corrupt")
      | exception Manifest.Corrupt msg ->
          Alcotest.(check bool)
            (what ^ ": error names the manifest") true
            (String.length msg > 0);
          if not (contains naming msg) then
            Alcotest.failf "%s: expected %S in %S" what naming msg)

let test_corrupt_manifests_rejected () =
  let valid =
    Manifest.to_json
      (Manifest.add (Manifest.create ~fingerprint:"fp" ~total:8) ~lo:0 ~hi:4)
  in
  expect_corrupt "missing manifest" None;
  expect_corrupt "empty file" (Some "");
  expect_corrupt "garbage" (Some "totally not json\n");
  expect_corrupt "truncated mid-write" ~naming:"(at byte "
    (Some (String.sub valid 0 (String.length valid / 2)));
  expect_corrupt "trailing bytes" (Some (valid ^ "x"));
  expect_corrupt "unknown version"
    (Some
       "{\"specrepair_manifest\":99,\"fingerprint\":\"fp\",\"total\":8,\"completed\":[]}");
  expect_corrupt "range out of bounds"
    (Some
       "{\"specrepair_manifest\":1,\"fingerprint\":\"fp\",\"total\":8,\"completed\":[[4,9]]}");
  expect_corrupt "unsorted ranges"
    (Some
       "{\"specrepair_manifest\":1,\"fingerprint\":\"fp\",\"total\":8,\"completed\":[[4,6],[0,2]]}");
  expect_corrupt "overlapping ranges"
    (Some
       "{\"specrepair_manifest\":1,\"fingerprint\":\"fp\",\"total\":8,\"completed\":[[0,4],[3,6]]}");
  expect_corrupt "inverted range"
    (Some
       "{\"specrepair_manifest\":1,\"fingerprint\":\"fp\",\"total\":8,\"completed\":[[4,4]]}");
  (* valid JSON, but not what [save] writes *)
  expect_corrupt "whitespace between tokens"
    (Some
       "{\"specrepair_manifest\":1, \"fingerprint\":\"fp\",\"total\":8,\"completed\":[[0,4]]}");
  expect_corrupt "total written as a float"
    (Some
       "{\"specrepair_manifest\":1,\"fingerprint\":\"fp\",\"total\":8.0,\"completed\":[[0,4]]}");
  expect_corrupt "reordered keys"
    (Some
       "{\"specrepair_manifest\":1,\"total\":8,\"fingerprint\":\"fp\",\"completed\":[[0,4]]}");
  expect_corrupt "extra key"
    (Some
       "{\"specrepair_manifest\":1,\"fingerprint\":\"fp\",\"total\":8,\"completed\":[[0,4]],\"extra\":0}");
  expect_corrupt "total above 2^53"
    (Some
       "{\"specrepair_manifest\":1,\"fingerprint\":\"fp\",\"total\":9007199254740993,\"completed\":[[0,4]]}")

let test_tampered_shard_detected () =
  with_tmpdir (fun dir ->
      ignore (run_stream ~dir ());
      let shard =
        match
          List.find_opt
            (fun f -> String.length f >= 6 && String.sub f 0 6 = "shard_")
            (Array.to_list (Sys.readdir dir))
        with
        | Some f -> Filename.concat dir f
        | None -> Alcotest.fail "complete run left no shards"
      in
      let expect_corrupt what =
        match merged_csv dir with
        | _ -> Alcotest.fail (what ^ ": expected Manifest.Corrupt")
        | exception Manifest.Corrupt msg ->
            Alcotest.(check bool) (what ^ ": names the shard") true
              (String.length msg > 0)
      in
      (* truncate the shard the manifest vouches for *)
      let ic = open_in_bin shard in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin shard in
      output_string oc (String.sub text 0 (String.length text / 2));
      close_out oc;
      expect_corrupt "truncated shard";
      (* remove it outright *)
      Sys.remove shard;
      expect_corrupt "missing shard")

let () =
  Alcotest.run "stream"
    [
      ( "corpus",
        [
          Alcotest.test_case "natural total" `Quick test_natural_total;
          Alcotest.test_case "streamed = materialized" `Slow
            test_stream_matches_materialized;
          Alcotest.test_case "epoch wrap" `Quick test_epoch_wrap;
          Alcotest.test_case "custom source" `Quick test_custom_source;
        ] );
      ( "resume",
        [
          Alcotest.test_case "crash + resume byte-identical" `Slow
            test_crash_then_resume_is_byte_identical;
          Alcotest.test_case "foreign fingerprint rejected" `Slow
            test_resume_rejects_foreign_fingerprint;
          Alcotest.test_case "fresh run refuses dirty dir" `Slow
            test_fresh_run_refuses_existing_checkpoint;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "round trip + pending" `Quick
            test_manifest_roundtrip_and_pending;
          Alcotest.test_case "corruption rejected loudly" `Quick
            test_corrupt_manifests_rejected;
          Alcotest.test_case "tampered shard detected" `Slow
            test_tampered_shard_detected;
        ] );
    ]
