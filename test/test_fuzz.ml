(* Tests for the differential fuzzing harness itself: seeded determinism
   of the generators, the DPLL reference against hand-checkable inputs,
   zero-discrepancy smoke campaigns for all seven targets, the chaos
   injection path (caught, shrunk, persisted), and regression-corpus
   replay. *)

open Specrepair_sat
module Fuzz = Specrepair_fuzz
module Rng = Fuzz.Rng
module Gen = Fuzz.Gen
module Harness = Fuzz.Harness
module Alloy = Specrepair_alloy

(* A fresh directory path per call; the harness creates it lazily, only
   when a discrepancy is persisted. *)
let tmp_dir =
  let counter = ref 0 in
  fun prefix ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !counter)

(* {2 Rng} *)

let test_rng_deterministic () =
  let stream seed path =
    let rng = Rng.of_context ~seed path in
    List.init 50 (fun _ -> Rng.next_int64 rng)
  in
  Alcotest.(check bool)
    "same seed, same path" true
    (stream 42 [ "sat"; "iter"; "3" ] = stream 42 [ "sat"; "iter"; "3" ]);
  Alcotest.(check bool)
    "different seed" false
    (stream 42 [ "sat"; "iter"; "3" ] = stream 43 [ "sat"; "iter"; "3" ]);
  Alcotest.(check bool)
    "different path" false
    (stream 42 [ "sat"; "iter"; "3" ] = stream 42 [ "sat"; "iter"; "4" ])

let test_rng_ranges () =
  let rng = Rng.of_context ~seed:1 [ "ranges" ] in
  for _ = 1 to 1000 do
    let v = Rng.range rng 3 7 in
    Alcotest.(check bool) "range inclusive" true (v >= 3 && v <= 7);
    let w = Rng.int rng 5 in
    Alcotest.(check bool) "int bound" true (w >= 0 && w < 5)
  done

(* {2 Generators} *)

let test_gen_deterministic () =
  let cnf_of seed =
    Format.asprintf "%a" Dimacs.print (Gen.cnf (Rng.of_context ~seed [ "g" ]))
  in
  Alcotest.(check string) "same seed, same cnf" (cnf_of 9) (cnf_of 9);
  Alcotest.(check bool) "different seeds differ" true
    (List.exists
       (fun s -> cnf_of s <> cnf_of 9)
       [ 10; 11; 12; 13; 14 ]);
  let spec_of seed =
    let env = Gen.spec ~with_commands:true (Rng.of_context ~seed [ "g" ]) in
    Alloy.Pretty.spec_to_string env.Alloy.Typecheck.spec
  in
  Alcotest.(check string) "same seed, same spec" (spec_of 9) (spec_of 9);
  Alcotest.(check bool) "different seeds give different specs" true
    (List.exists (fun s -> spec_of s <> spec_of 9) [ 10; 11; 12; 13; 14 ])

let test_gen_specs_well_typed () =
  for seed = 0 to 30 do
    let env = Gen.spec ~with_commands:true (Rng.of_context ~seed [ "wt" ]) in
    match Alloy.Typecheck.check_result env.Alloy.Typecheck.spec with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "seed %d generated an ill-typed spec: %s" seed msg
  done

(* {2 The DPLL reference} *)

let lit = Lit.of_dimacs

let test_ref_sat_basics () =
  let cnf = { Dimacs.num_vars = 2; clauses = [ [ lit 1; lit 2 ]; [ lit (-1) ] ] } in
  (match Fuzz.Ref_sat.solve cnf with
  | Fuzz.Ref_sat.Sat m ->
      Alcotest.(check bool) "x1 false" false m.(0);
      Alcotest.(check bool) "x2 true" true m.(1)
  | Fuzz.Ref_sat.Unsat -> Alcotest.fail "expected sat");
  let unsat =
    { Dimacs.num_vars = 1; clauses = [ [ lit 1 ]; [ lit (-1) ] ] }
  in
  (match Fuzz.Ref_sat.solve unsat with
  | Fuzz.Ref_sat.Unsat -> ()
  | Fuzz.Ref_sat.Sat _ -> Alcotest.fail "expected unsat");
  match Fuzz.Ref_sat.solve ~assumptions:[ lit (-2) ] cnf with
  | Fuzz.Ref_sat.Unsat -> ()
  | Fuzz.Ref_sat.Sat _ -> Alcotest.fail "assumptions must bind"

let test_ref_sat_vs_solver () =
  for seed = 0 to 199 do
    let rng = Rng.of_context ~seed [ "refsat" ] in
    let cnf = Gen.cnf rng in
    let assumptions =
      if Rng.bool rng then Gen.assumptions rng ~num_vars:cnf.Dimacs.num_vars
      else []
    in
    let s = Solver.create () in
    ignore (Solver.new_vars s cnf.Dimacs.num_vars);
    List.iter (Solver.add_clause s) cnf.Dimacs.clauses;
    match (Solver.solve ~assumptions s, Fuzz.Ref_sat.solve ~assumptions cnf) with
    | Solver.Sat, Fuzz.Ref_sat.Sat _ | Solver.Unsat, Fuzz.Ref_sat.Unsat -> ()
    | r, _ ->
        Alcotest.failf "seed %d: solver %s disagrees with reference" seed
          (match r with
          | Solver.Sat -> "sat"
          | Solver.Unsat -> "unsat"
          | Solver.Unknown -> "unknown")
  done

(* {2 Campaign smoke: all six targets, zero discrepancies} *)

let smoke target iters () =
  let dir = tmp_dir "fuzz-smoke" in
  let r = Harness.run ~corpus_dir:dir target ~seed:11 ~iters () in
  Alcotest.(check int) "zero discrepancies" 0 r.Harness.discrepancies;
  Alcotest.(check int) "all iterations accounted for" iters
    (r.Harness.checks + r.Harness.skipped)

(* The oracle campaign's long streams must actually exercise context
   retirement, serve key digests from the memo and read models off model
   streams, and only the oracle report carries the counts. *)
let test_oracle_retires_contexts () =
  let dir = tmp_dir "fuzz-retire" in
  let r = Harness.run ~corpus_dir:dir Harness.oracle ~seed:11 ~iters:25 () in
  Alcotest.(check (list string)) "oracle report's counts"
    [
      "contexts_retired"; "keys_reused"; "witness_hits"; "core_hits";
      "stream_models_reused";
    ]
    (List.map fst r.Harness.counts);
  Alcotest.(check bool) "contexts retired" true
    (List.assoc "contexts_retired" r.Harness.counts > 0);
  Alcotest.(check bool) "key digests reused" true
    (List.assoc "keys_reused" r.Harness.counts > 0);
  Alcotest.(check bool) "stored witnesses answered" true
    (List.assoc "witness_hits" r.Harness.counts > 0);
  Alcotest.(check bool) "stored cores answered" true
    (List.assoc "core_hits" r.Harness.counts > 0);
  Alcotest.(check bool) "streamed models reused" true
    (List.assoc "stream_models_reused" r.Harness.counts > 0);
  let e = Harness.run ~corpus_dir:dir Harness.eval ~seed:11 ~iters:1 () in
  Alcotest.(check int) "eval report has no count" 0
    (List.length e.Harness.counts)

(* The panel campaign's shared mutation-space stores must actually answer
   proposal builds, and only the panel report carries the count. *)
let test_panel_reuses_spaces () =
  let dir = tmp_dir "fuzz-spaces" in
  let r = Harness.run ~corpus_dir:dir Harness.panel ~seed:11 ~iters:10 () in
  Alcotest.(check int) "zero discrepancies" 0 r.Harness.discrepancies;
  Alcotest.(check (list string)) "panel report's counts" [ "spaces_reused" ]
    (List.map fst r.Harness.counts);
  Alcotest.(check bool) "spaces reused" true
    (List.assoc "spaces_reused" r.Harness.counts > 0);
  let e = Harness.run ~corpus_dir:dir Harness.eval ~seed:11 ~iters:1 () in
  Alcotest.(check int) "eval report has no count" 0
    (List.length e.Harness.counts)

(* The replies campaign must answer requests from its memo handlers, or
   it compared recomputations with themselves. *)
let test_replies_reuse_replies () =
  let dir = tmp_dir "fuzz-replies" in
  let r = Harness.run ~corpus_dir:dir Harness.replies ~seed:11 ~iters:20 () in
  Alcotest.(check int) "zero discrepancies" 0 r.Harness.discrepancies;
  Alcotest.(check (list string)) "replies report's counts" [ "replies_reused" ]
    (List.map fst r.Harness.counts);
  Alcotest.(check bool) "replies reused" true
    (List.assoc "replies_reused" r.Harness.counts > 0)

let test_report_deterministic () =
  let dir = tmp_dir "fuzz-det" in
  let run () =
    Harness.report_json
      (Harness.run ~corpus_dir:dir Harness.sat ~seed:5 ~iters:60 ())
  in
  Alcotest.(check string) "byte-identical reports" (run ()) (run ())

let test_summary_escapes () =
  let corpus_dir = "a\\b\"c\nd\te" in
  let report =
    {
      Harness.target = "sat";
      seed = 1;
      iters = 1;
      checks = 1;
      skipped = 0;
      discrepancies = 0;
      corpus = [ Filename.concat corpus_dir "x.cnf" ];
      counts = [];
    }
  in
  let module Json = Specrepair_json in
  match Json.parse (Harness.summary_json ~corpus_dir ~seed:1 [ report ]) with
  | Error (pos, msg) -> Alcotest.failf "summary is not JSON (byte %d: %s)" pos msg
  | Ok j ->
      let fuzz = Option.get (Json.member "fuzz" j) in
      Alcotest.(check (option string))
        "corpus dir decoded" (Some corpus_dir)
        (Json.mem_str "corpus_dir" fuzz);
      Alcotest.(check (option (list string)))
        "corpus entries decoded" (Some report.Harness.corpus)
        (match Option.bind (Json.member "targets" fuzz) Json.to_list with
        | Some [ r ] ->
            Option.bind (Json.member "corpus" r) Json.to_list
            |> Option.map (List.filter_map Json.to_str)
        | _ -> None)

(* {2 Chaos injection: caught, shrunk, persisted, replayable} *)

let test_chaos_injection () =
  let dir = tmp_dir "fuzz-chaos" in
  Unix.putenv "SPECREPAIR_FUZZ_CHAOS" "drop-clause";
  let r =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "SPECREPAIR_FUZZ_CHAOS" "")
      (fun () -> Harness.run ~corpus_dir:dir Harness.sat ~seed:42 ~iters:50 ())
  in
  Alcotest.(check bool) "injected fault detected" true
    (r.Harness.discrepancies > 0);
  Alcotest.(check int) "one corpus entry per discrepancy"
    r.Harness.discrepancies
    (List.length r.Harness.corpus);
  List.iter
    (fun path ->
      Alcotest.(check bool) "corpus entry exists" true (Sys.file_exists path);
      let cnf, _ = Fuzz.Corpus.load_cnf path in
      (* the shrinker must have reduced the failure to a handful of
         clauses: dropping any one of them makes the checkers agree *)
      Alcotest.(check bool) "entry is minimized" true
        (List.length cnf.Dimacs.clauses <= 3))
    r.Harness.corpus;
  (* with the fault healed, every persisted entry replays clean *)
  List.iter
    (fun (path, res) ->
      match res with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "replay of %s failed: %s" path msg)
    (Harness.replay_dir dir)

(* The proof target under chaos: the checker sees every premise but the
   last, so certificates stop checking — a rejection counted as a
   discrepancy, never a crash — and the persisted entries replay clean
   once the fault is healed. *)
let test_chaos_proof_rejection () =
  let dir = tmp_dir "fuzz-chaos-proof" in
  Unix.putenv "SPECREPAIR_FUZZ_CHAOS" "drop-clause";
  let r =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "SPECREPAIR_FUZZ_CHAOS" "")
      (fun () ->
        Harness.run ~corpus_dir:dir Harness.proof ~seed:42 ~iters:50 ())
  in
  Alcotest.(check bool) "tampered certificates rejected" true
    (r.Harness.discrepancies > 0);
  Alcotest.(check int) "every iteration still completed" 50
    (r.Harness.checks + r.Harness.skipped);
  List.iter
    (fun (path, res) ->
      match res with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "replay of %s failed: %s" path msg)
    (Harness.replay_dir dir)

(* The parse target under chaos: one token of each printed spec is
   replaced with garbage, and the frontend must reject every corrupted
   source with a diagnostic placed exactly at the corruption.  Unlike the
   other hooks, correct behaviour here is rejection, so the campaign must
   finish with zero discrepancies. *)
let test_chaos_parse_rejection () =
  let dir = tmp_dir "fuzz-chaos-parse" in
  Unix.putenv "SPECREPAIR_FUZZ_CHAOS" "corrupt-token";
  let r =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "SPECREPAIR_FUZZ_CHAOS" "")
      (fun () ->
        Harness.run ~corpus_dir:dir Harness.parse ~seed:42 ~iters:60 ())
  in
  Alcotest.(check int) "every corrupted source rejected with a position" 0
    r.Harness.discrepancies;
  Alcotest.(check int) "every iteration completed" 60
    (r.Harness.checks + r.Harness.skipped)

(* The oracle target under its two chaos hooks: a witness that answers
   without its goal checked gives wrong [Sat]s, a core stored less one key
   wrong [Unsat]s, and the comparison with fresh solves must catch both. *)
let test_chaos_oracle_stores () =
  List.iter
    (fun hook ->
      let dir = tmp_dir ("fuzz-chaos-" ^ hook) in
      Unix.putenv "SPECREPAIR_FUZZ_CHAOS" hook;
      let r =
        Fun.protect
          ~finally:(fun () -> Unix.putenv "SPECREPAIR_FUZZ_CHAOS" "")
          (fun () ->
            Harness.run ~corpus_dir:dir Harness.oracle ~seed:42 ~iters:20 ())
      in
      Alcotest.(check bool) (hook ^ ": wrong answers caught") true
        (r.Harness.discrepancies > 0))
    [ "corrupt-witness"; "drop-core-key" ]

(* {2 Regression corpus replay} *)

(* `dune runtest` runs from the test directory, `dune exec` from the
   project root; the committed corpus is reachable from both. *)
let corpus_dir =
  if Sys.file_exists "../artifacts/fuzz" then "../artifacts/fuzz"
  else "artifacts/fuzz"

let test_corpus_replay () =
  let entries = Harness.replay_dir corpus_dir in
  Alcotest.(check bool) "corpus is not empty" true (entries <> []);
  List.iter
    (fun (path, res) ->
      match res with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "regression %s failed: %s" path msg)
    entries

let () =
  Alcotest.run "fuzz"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
        ] );
      ( "generators",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "well-typed specs" `Quick test_gen_specs_well_typed;
        ] );
      ( "reference sat",
        [
          Alcotest.test_case "basics" `Quick test_ref_sat_basics;
          Alcotest.test_case "agrees with solver" `Quick test_ref_sat_vs_solver;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "sat" `Quick (smoke Harness.sat 150);
          Alcotest.test_case "solver" `Quick (smoke Harness.solver 40);
          Alcotest.test_case "oracle" `Quick (smoke Harness.oracle 25);
          Alcotest.test_case "oracle retires contexts" `Quick
            test_oracle_retires_contexts;
          Alcotest.test_case "panel reuses spaces" `Quick
            test_panel_reuses_spaces;
          Alcotest.test_case "replies reuse replies" `Quick
            test_replies_reuse_replies;
          Alcotest.test_case "eval" `Quick (smoke Harness.eval 40);
          Alcotest.test_case "proof" `Quick (smoke Harness.proof 100);
          Alcotest.test_case "parse" `Quick (smoke Harness.parse 150);
          Alcotest.test_case "deterministic report" `Quick
            test_report_deterministic;
          Alcotest.test_case "summary escapes strings" `Quick
            test_summary_escapes;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "injection caught" `Quick test_chaos_injection;
          Alcotest.test_case "proof rejection" `Quick
            test_chaos_proof_rejection;
          Alcotest.test_case "parse rejection" `Quick
            test_chaos_parse_rejection;
          Alcotest.test_case "oracle stores" `Quick test_chaos_oracle_stores;
        ] );
      ( "corpus",
        [ Alcotest.test_case "regression replay" `Quick test_corpus_replay ] );
    ]
