(* Benchmark harness.

   Running this executable regenerates every experimental artifact of the
   paper on a stratified benchmark sample — Table I (REP counts), Figure 2
   (TM/SM means), Figure 3 (Pearson matrix), Table II / Figure 4 (hybrid
   unions) — and then runs the measurement stages ORACLE, PROOF, SAT,
   STREAM, SERVE and HYBRID.  Each stage writes one BENCH_<stage>.json
   artifact, which opens with the git revision, core count and OCaml
   version it was measured with, and declares its gates next to it:
   predicates that read the written artifact by field name, so a renamed
   or missing field fails its gate.  This file is the only place a bench
   gate exists.  The run ends with one pass/fail table and exits 1 if any
   applicable gate failed.

   Environment:
     BENCH_SAMPLE        variants per domain for the embedded study (default
                         2; the full-scale run is `specrepair evaluate`; the
                         HYBRID stage floors its own battery at 2 so the
                         panel-union gate is never vacuous).
     BENCH_ARTIFACTS_DIR existing directory the BENCH_*.json artifacts are
                         written to (default: the working directory).
     BENCH_STREAM_SMALL  small corpus size for the stream stage (default 1000).
     BENCH_STREAM_LARGE  large corpus size for the stream stage (default
                         100000; the stage proves throughput does not degrade
                         with corpus size, i.e. streaming is O(1)-memory and
                         O(n)-time).
     CI                  CI=1 skips the wall-clock gates, because shared
                         runners are too noisy for timing ratios; the
                         deterministic gates (counters, identities, verdict
                         agreement) always run.

   A malformed size or an unusable artifact directory exits 2 before the
   first stage. *)

module S = Specrepair
module Json = S.Json

(* {2 Settings} *)

let reject fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2)
    fmt

let positive_setting name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> n
      | _ -> reject "%s must be a positive integer, got %S" name s)

let sample_size = positive_setting "BENCH_SAMPLE" 2
let stream_small = positive_setting "BENCH_STREAM_SMALL" 1_000
let stream_large = positive_setting "BENCH_STREAM_LARGE" 100_000

let artifacts_dir =
  let dir = Option.value (Sys.getenv_opt "BENCH_ARTIFACTS_DIR") ~default:"." in
  match Unix.access dir [ Unix.W_OK; Unix.X_OK ] with
  | () when Sys.is_directory dir -> dir
  | () | (exception Unix.Unix_error _) ->
      reject "BENCH_ARTIFACTS_DIR %S is not a writable directory" dir

let ci = Sys.getenv_opt "CI" = Some "1"

(* fixed workload shapes *)
let serve_repeats = 5
let stream_jobs = 4

(* {2 Gates} *)

type gate = {
  what : string;
  timed : bool;  (** wall-clock: skipped under CI=1 *)
  shows : string list;  (** the artifact fields the table prints *)
  holds : Json.t -> bool;
}

let field what shows holds = { what; timed = false; shows; holds }

(* [on k test] reads number [k] of the artifact; a missing field fails *)
let on k test a = match Json.mem_num k a with Some v -> test v | None -> false
let positive k = field (k ^ " > 0") [ k ] (on k (fun v -> v > 0.))
let zero k = field (k ^ " = 0") [ k ] (on k (fun v -> v = 0.))
let holds k = field k [ k ] (fun a -> Json.mem_bool k a = Some true)
let at_least k x = field (Printf.sprintf "%s >= %g" k x) [ k ] (on k (( <= ) x))
let timed_at_least k x = { (at_least k x) with timed = true }

let equal k k' =
  field (k ^ " = " ^ k') [ k; k' ] (fun a ->
      match (Json.mem_num k a, Json.mem_num k' a) with
      | Some x, Some y -> x = y
      | _ -> false)

(* an in-stage check whose subject is not an artifact field *)
let fact what b = field what [] (fun _ -> b)

type outcome = Pass | Fail | Skipped

(* (stage, gate label, observed values, outcome), in declaration order *)
let judged : (string * string * string * outcome) list ref = ref []

let record stage what observed outcome =
  judged := (stage, what, observed, outcome) :: !judged

let observed a g =
  let show k =
    match Json.member k a with
    | Some (Json.List l) -> Printf.sprintf "%s=[%d]" k (List.length l)
    | Some v -> k ^ "=" ^ Json.to_string v
    | None -> k ^ " missing"
  in
  if g.shows = [] then string_of_bool (g.holds a)
  else String.concat " " (List.map show g.shows)

let judge stage artifact gates =
  List.iter
    (fun g ->
      record stage g.what (observed artifact g)
        (if g.timed && ci then Skipped
         else if g.holds artifact then Pass
         else Fail))
    gates

(* {2 Artifacts} *)

let dec3 f = Json.Fixed (3, f)

(* [git_rev] is null outside a git checkout. *)
let stamp =
  let git_rev =
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let rev = In_channel.input_line ic in
    match (Unix.close_process_in ic, rev) with
    | Unix.WEXITED 0, Some rev -> Json.Str (String.trim rev)
    | _ -> Json.Null
  in
  [
    ("git_rev", git_rev);
    ("nproc", Json.int (Domain.recommended_domain_count ()));
    ("ocaml", Json.Str Sys.ocaml_version);
  ]

(* One JSON object per artifact: the stamp, then the stage's fields.
   Returns the object as written, re-read, so gates judge exactly the
   printed figures (a ratio rounded to three decimals, for instance). *)
let write_artifact stage fields =
  let path = Filename.concat artifacts_dir ("BENCH_" ^ stage ^ ".json") in
  let line = Json.to_string (Json.Obj (stamp @ fields)) in
  Out_channel.with_open_text path (fun oc ->
      output_string oc line;
      output_char oc '\n');
  Printf.printf "%s artifact written to %s\n\n%!" stage path;
  Result.get_ok (Json.parse line)

(* A stage returns its artifact's fields and its gates.  A stage that
   raises writes no artifact and fails its one "completes" gate. *)
let stage name run =
  match run () with
  | fields, gates -> judge name (write_artifact name fields) gates
  | exception e -> record name "completes" (Printexc.to_string e) Fail

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.)

(* {2 The study} *)

let () =
  Printf.printf
    "== specrepair bench: study on %d variant(s) per domain ==\n%!"
    sample_size

let variants = S.Benchmarks.Generate.sample ~per_domain:sample_size ()

let results = S.Eval.Study.run variants

(* {2 Artifact regeneration (the paper's tables and figures)} *)

let () =
  print_endline (S.Eval.Tables.table1 results);
  print_endline (S.Eval.Tables.fig2 results);
  print_endline (S.Eval.Tables.fig3 results);
  print_endline (S.Eval.Tables.table2 results);
  print_endline (S.Eval.Tables.summary results)

(* {2 Ablation study (design choices of the multi-round pipeline)} *)

let () =
  let tasks = List.map S.Benchmarks.Generate.to_task variants in
  let count f = List.length (List.filter f tasks) in
  let full =
    count (fun t ->
        (S.Llm.Multi_round.repair t S.Llm.Multi_round.No_feedback).repaired)
  in
  let no_hc =
    count (fun t ->
        (S.Llm.Multi_round.repair ~hill_climb:false t
           S.Llm.Multi_round.No_feedback)
          .repaired)
  in
  let no_mc =
    count (fun t ->
        (S.Llm.Multi_round.repair ~mental_check:false t
           S.Llm.Multi_round.No_feedback)
          .repaired)
  in
  let portfolio =
    count (fun t -> (fst (S.Eval.Portfolio.repair t)).repaired)
  in
  let weaker_model =
    count (fun t ->
        (S.Llm.Multi_round.repair ~profile:S.Llm.Model.gpt35 t
           S.Llm.Multi_round.No_feedback)
          .repaired)
  in
  let n = List.length tasks in
  Printf.printf
    "ABLATION (Multi-Round_None on %d sampled variants)\n\n\
    \  full pipeline:        %d/%d\n\
    \  without hill-climb:   %d/%d\n\
    \  without mental check: %d/%d\n\
    \  portfolio (ATR->MR):  %d/%d\n\
    \  gpt-3.5 profile:      %d/%d\n\n%!"
    n full n no_hc n no_mc n portfolio n weaker_model n

(* {2 Oracle stages: incremental vs fresh candidate checking}

   A repair-shaped workload: every candidate is a faulty single- or
   double-edit variant of a domain's ground truth, and the loop asks the
   property oracle about each one — the inner loop of ATR, BeAFix, and
   ICEBAR.  The fresh stage rebuilds a solver and retranslates the spec on
   every query; the incremental stage shares one oracle session per domain
   (activation literals, learned clauses, verdict cache).  Each candidate
   is queried twice, as repair loops do (once to score, once to
   re-verify), and both stages must agree on every verdict. *)

let oracle_workload =
  let domains = List.filteri (fun i _ -> i < 3) S.Benchmarks.Domains.all in
  List.map
    (fun d ->
      let candidates =
        List.filter_map
          (fun index ->
            match S.Benchmarks.Fault.inject ~seed:7 d ~index with
            | inj -> (
                match S.Alloy.Typecheck.check_result inj.faulty with
                | Ok env -> Some env
                | Error _ -> None)
            | exception Failure _ -> None)
          (List.init 8 Fun.id)
      in
      (d, candidates))
    domains

let n_candidates =
  List.fold_left (fun n (_, cs) -> n + List.length cs) 0 oracle_workload

let check_workload ~mk_check () =
  List.fold_left
    (fun acc (d, candidates) ->
      let check = mk_check d in
      List.fold_left
        (fun acc env ->
          let p1 = check env in
          let p2 = check env in
          acc + (if p1 then 1 else 0) + if p2 then 1 else 0)
        acc candidates)
    0 oracle_workload

(* The oracles' counters summed key by key, in the [oracle] schema's
   order. *)
let oracle_totals oracles =
  let sets =
    List.map
      (fun o -> Json.Counters.bindings (S.Analyzer.Oracle.stats o))
      oracles
  in
  match sets with
  | [] -> []
  | first :: rest ->
      List.fold_left
        (List.map2 (fun (k, n) (_, _, v) -> (k, n + v)))
        (List.map (fun (k, _, v) -> (k, v)) first)
        rest

(* the fresh stage rebuilds everything per query: a throwaway session (and
   thus a throwaway oracle) each time *)
let fresh_check env =
  S.Repair.Common.oracle_passes (S.Repair.Session.create env) env

let () =
  stage "oracle" @@ fun () ->
  let fresh_passes, fresh_ms =
    time_ms (fun () -> check_workload ~mk_check:(fun _ -> fresh_check) ())
  in
  let oracles = ref [] in
  let inc_passes, incremental_ms =
    time_ms (fun () ->
        check_workload
          ~mk_check:(fun d ->
            let env = S.Benchmarks.Domains.env d in
            let o = S.Analyzer.Oracle.create env in
            oracles := o :: !oracles;
            let session = S.Repair.Session.create ~oracle:o env in
            fun candidate -> S.Repair.Common.oracle_passes session candidate)
          ())
  in
  let speedup = fresh_ms /. incremental_ms in
  let totals = oracle_totals !oracles in
  Printf.printf
    "ORACLE (%d candidates over %d domains, 2 full property checks each)\n\n\
    \  oracle-fresh:       %8.1f ms\n\
    \  oracle-incremental: %8.1f ms\n\
    \  speedup:            %8.2fx\n\n"
    n_candidates (List.length oracle_workload) fresh_ms incremental_ms speedup;
  List.iter (fun (k, n) -> Printf.printf "  %-20s %8d\n" k n) totals;
  print_newline ();
  ( [
      ("sample", Json.int sample_size);
      ("domains", Json.int (List.length oracle_workload));
      ("candidates", Json.int n_candidates);
      ("fresh_ms", dec3 fresh_ms);
      ("incremental_ms", dec3 incremental_ms);
      ("speedup", dec3 speedup);
    ]
    @ List.map (fun (k, n) -> (k, Json.int n)) totals,
    [
      fact "fresh and incremental verdicts agree" (fresh_passes = inc_passes);
      positive "candidates";
      positive "verdict_hits";
      positive "formulas_reused";
      timed_at_least "speedup" 2.0;
    ] )

(* {2 Proof stage: certification overhead}

   The same candidate-checking workload as the oracle stage, once with a
   plain incremental oracle and once with `~certify:true`, where every
   UNSAT verdict is cross-checked by the independent DRUP checker.  Both
   runs must agree on every verdict, every certificate must be accepted,
   and the measured ratio is the price of auditing a study run.  A
   SAT-level microbenchmark (a pigeonhole instance) separates the cost of
   logging from the cost of checking. *)

let () =
  stage "proof" @@ fun () ->
  let plain_passes, plain_ms =
    time_ms (fun () ->
        check_workload
          ~mk_check:(fun d ->
            let env = S.Benchmarks.Domains.env d in
            let session = S.Repair.Session.create env in
            fun candidate -> S.Repair.Common.oracle_passes session candidate)
          ())
  in
  let cert_oracles = ref [] in
  let cert_passes, cert_ms =
    time_ms (fun () ->
        check_workload
          ~mk_check:(fun d ->
            let env = S.Benchmarks.Domains.env d in
            let o = S.Analyzer.Oracle.create ~certify:true env in
            cert_oracles := o :: !cert_oracles;
            let session = S.Repair.Session.create ~oracle:o env in
            fun candidate -> S.Repair.Common.oracle_passes session candidate)
          ())
  in
  let total key =
    List.fold_left
      (fun n o -> n + Json.Counters.get (S.Analyzer.Oracle.stats o) key)
      0 !cert_oracles
  in
  let certified = total S.Analyzer.Oracle.certified
  and cert_failures = total S.Analyzer.Oracle.certificate_failures in
  (* SAT-level microbenchmark: pigeonhole (n+1 pigeons, n holes) *)
  let cnf = S.Sat.Hard_cnf.pigeonhole 6 in
  let solve ?sink () =
    let s = S.Sat.Solver.create () in
    (match sink with None -> () | Some _ -> S.Sat.Solver.set_proof s sink);
    S.Sat.Dimacs.load_into s cnf;
    S.Sat.Solver.solve s = S.Sat.Solver.Unsat
  in
  let plain_unsat, sat_plain_ms = time_ms (fun () -> solve ()) in
  let recorder = S.Sat.Proof.recorder () in
  let logged_unsat, sat_logged_ms =
    time_ms (fun () -> solve ~sink:(S.Sat.Proof.recorder_sink recorder) ())
  in
  let steps = S.Sat.Proof.steps recorder in
  let checked, sat_checked_ms =
    time_ms (fun () ->
        S.Sat.Drat.check
          ~premises:(S.Sat.Proof.inputs recorder)
          (List.to_seq steps))
  in
  let overhead = cert_ms /. plain_ms in
  Printf.printf
    "PROOF (certified oracle re-run of the workload above)\n\n\
    \  oracle-plain:       %8.1f ms\n\
    \  oracle-certified:   %8.1f ms (overhead %.2fx)\n\
    \  certificates:       %d accepted / %d rejected\n\
    \  pigeonhole(7,6):    %8.1f ms plain, %8.1f ms logged, %8.1f ms checked \
     (%d steps)\n\n%!"
    plain_ms cert_ms overhead certified cert_failures sat_plain_ms
    sat_logged_ms sat_checked_ms (List.length steps);
  ( [
      ("sample", Json.int sample_size);
      ("domains", Json.int (List.length oracle_workload));
      ("candidates", Json.int n_candidates);
      ("plain_ms", dec3 plain_ms);
      ("certified_ms", dec3 cert_ms);
      ("overhead", dec3 overhead);
      ("verdicts_match", Json.Bool (plain_passes = cert_passes));
      ("certified", Json.int certified);
      ("certificate_failures", Json.int cert_failures);
      ("sat_plain_ms", dec3 sat_plain_ms);
      ("sat_logged_ms", dec3 sat_logged_ms);
      ("sat_checked_ms", dec3 sat_checked_ms);
      ("proof_steps", Json.int (List.length steps));
    ],
    [
      holds "verdicts_match";
      positive "certified";
      zero "certificate_failures";
      fact "pigeonhole(7,6) answers unsat" (plain_unsat && logged_unsat);
      fact "pigeonhole certificate accepted" (checked = Ok ());
      positive "proof_steps";
    ] )

(* {2 SAT stage: inprocessing and portfolio racing on hard instances}

   Hard CNF families — pigeonhole, pigeonhole with injected clause
   redundancy (the shape of Tseitin-translated specifications), and random
   3-SAT at the satisfiability phase transition — solved three ways: a
   plain solver, the proof-preserving inprocessing solver
   (`Sat.Simplify.solve`), and a 4-worker racing portfolio
   (`Sat.Portfolio.solve`).  All three must agree on every verdict, and
   every UNSAT instance is re-solved under a proof recorder whose DRUP
   certificate the independent checker must accept — the speedups are only
   worth reporting if the proofs still check. *)

type sat_row = {
  name : string;
  instances : int;
  verdicts : string;
  plain_ms : float;
  simplify_ms : float;
  portfolio_ms : float;
  agree : bool;  (** every mode, the certifying re-solve included *)
  certified : int;
  rejected : int;
}

let () =
  stage "sat" @@ fun () ->
  let families =
    [
      ("php", [ S.Sat.Hard_cnf.pigeonhole 7 ]);
      (* heavy clause-level redundancy: the shape subsumption exists for *)
      ( "php-redundant",
        [
          S.Sat.Hard_cnf.with_redundancy ~seed:3 ~copies:64
            (S.Sat.Hard_cnf.pigeonhole 7);
        ] );
      (* mixed verdicts near the phase transition, kept small *)
      ( "3sat",
        List.map
          (fun seed ->
            S.Sat.Hard_cnf.random_3sat ~seed ~num_vars:120 ~num_clauses:511)
          [ 11; 12; 13 ] );
      (* a heavy-tail satisfiable instance just below the transition: the
         default configuration grinds for many seconds while a scrambled
         worker finds a model almost immediately — the case racing
         diversified configurations exists for (the speedup is algorithmic,
         so it survives even a single-core host) *)
      ( "3sat-tail",
        [ S.Sat.Hard_cnf.random_3sat ~seed:17 ~num_vars:300 ~num_clauses:1250 ]
      );
    ]
  in
  let plain_solve cnf =
    let s = S.Sat.Solver.create () in
    S.Sat.Dimacs.load_into s cnf;
    S.Sat.Solver.solve s
  in
  let verdict_name = function
    | S.Sat.Solver.Sat -> "sat"
    | S.Sat.Solver.Unsat -> "unsat"
    | S.Sat.Solver.Unknown -> "unknown"
  in
  (* re-solve an UNSAT instance under a proof recorder: [Some accepted],
     or [None] if the certifying solve changed the verdict *)
  let certify cnf =
    let recorder = S.Sat.Proof.recorder () in
    let sink = S.Sat.Proof.recorder_sink recorder in
    List.iter
      (fun c -> sink (S.Sat.Proof.Input (Array.of_list c)))
      cnf.S.Sat.Dimacs.clauses;
    let r = S.Sat.Simplify.solve ~proof:sink cnf in
    if r.S.Sat.Simplify.result <> S.Sat.Solver.Unsat then None
    else
      Some
        (S.Sat.Drat.check
           ~premises:(S.Sat.Proof.inputs recorder)
           (List.to_seq (S.Sat.Proof.steps recorder))
        = Ok ())
  in
  let rows =
    List.map
      (fun (name, cnfs) ->
        let plain, plain_ms = time_ms (fun () -> List.map plain_solve cnfs) in
        let simped, simplify_ms =
          time_ms (fun () ->
              List.map
                (fun c -> (S.Sat.Simplify.solve c).S.Sat.Simplify.result)
                cnfs)
        in
        let raced, portfolio_ms =
          time_ms (fun () ->
              List.map
                (fun c ->
                  (S.Sat.Portfolio.solve ~jobs:4 c).S.Sat.Portfolio.result)
                cnfs)
        in
        let certs =
          List.concat
            (List.map2
               (fun cnf v ->
                 if v = S.Sat.Solver.Unsat then [ certify cnf ] else [])
               cnfs plain)
        in
        {
          name;
          instances = List.length cnfs;
          verdicts = String.concat "+" (List.map verdict_name plain);
          plain_ms;
          simplify_ms;
          portfolio_ms;
          agree = simped = plain && raced = plain && not (List.mem None certs);
          certified = List.length (List.filter (( = ) (Some true)) certs);
          rejected = List.length (List.filter (( = ) (Some false)) certs);
        })
      families
  in
  let simplify_speedup r = r.plain_ms /. r.simplify_ms in
  let portfolio_speedup r = r.plain_ms /. r.portfolio_ms in
  let best f = List.fold_left (fun acc r -> max acc (f r)) 0. rows in
  let total f = List.fold_left (fun n r -> n + f r) 0 rows in
  print_endline
    "SAT (hard instances: plain vs inprocessing vs 4-worker portfolio)\n";
  List.iter
    (fun r ->
      Printf.printf
        "  %-14s %d instance(s), %-15s plain %8.1f ms | simplify %8.1f ms \
         (%.2fx) | portfolio %8.1f ms (%.2fx) | %d certified\n"
        r.name r.instances r.verdicts r.plain_ms r.simplify_ms
        (simplify_speedup r) r.portfolio_ms (portfolio_speedup r) r.certified)
    rows;
  Printf.printf
    "\n  best simplify speedup:  %.2fx\n  best portfolio speedup: %.2fx\n\n%!"
    (best simplify_speedup) (best portfolio_speedup);
  let family r =
    Json.Obj
      [
        ("name", Json.Str r.name);
        ("instances", Json.int r.instances);
        ("verdicts", Json.Str r.verdicts);
        ("plain_ms", dec3 r.plain_ms);
        ("simplify_ms", dec3 r.simplify_ms);
        ("portfolio_ms", dec3 r.portfolio_ms);
        ("simplify_speedup", dec3 (simplify_speedup r));
        ("portfolio_speedup", dec3 (portfolio_speedup r));
        ("certified_unsat", Json.int r.certified);
      ]
  in
  let families_with f a =
    match Option.bind (Json.member "families" a) Json.to_list with
    | Some (_ :: _ as fams) -> List.for_all f fams
    | _ -> false
  in
  ( [
      ("families", Json.List (List.map family rows));
      ("best_simplify_speedup", dec3 (best simplify_speedup));
      ("best_portfolio_speedup", dec3 (best portfolio_speedup));
      ("verdicts_agree", Json.Bool (List.for_all (fun r -> r.agree) rows));
      ("certified_unsat", Json.int (total (fun r -> r.certified)));
      ("certificate_failures", Json.int (total (fun r -> r.rejected)));
    ],
    [
      field "families non-empty" [ "families" ] (families_with (fun _ -> true));
      field "no family verdict unknown" [] (fun a ->
          families_with
            (fun f ->
              match Json.mem_str "verdicts" f with
              | Some v ->
                  not (List.mem "unknown" (String.split_on_char '+' v))
              | None -> false)
            a);
      holds "verdicts_agree";
      positive "certified_unsat";
      zero "certificate_failures";
      timed_at_least "best_simplify_speedup" 1.2;
      timed_at_least "best_portfolio_speedup" 1.5;
    ] )

(* {2 Stream stage: checkpointed corpus streaming, small vs large}

   The million-spec claim: because study rows are generated on demand and
   results land in sharded files, throughput must not degrade with corpus
   size — a 100k-row run streams at the same rows/s as a 1k-row run, and
   the merging parent never holds more than one shard in memory.  The
   workload is corpus derivation over the fuzz-generated source (the same
   producer the STREAM fuzz target cross-checks), pushed through the real
   checkpoint/resume scheduler; the deterministic gates are row counts and
   manifest completeness, the throughput ratio is wall-clock.  The
   parent's peak heap is the major heap's growth over this stage alone,
   sampled at every merged chunk — earlier stages' peaks do not count. *)

let () =
  stage "stream" @@ fun () ->
  let seed = 42 in
  let source = Specrepair_fuzz.Stream_source.fuzzed in
  let derive ~emit:_ i =
    let v = S.Eval.Corpus_stream.variant ~source ~seed i in
    Printf.sprintf "%s,%s" v.S.Benchmarks.Generate.id
      (Digest.to_hex
         (Digest.string
            (S.Alloy.Pretty.spec_to_string v.injected.S.Benchmarks.Fault.faulty)))
  in
  let with_tmpdir k =
    let dir = Filename.temp_file "bench_stream_" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o755;
    let rec rm p =
      if Sys.is_directory p then (
        Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
        Unix.rmdir p)
      else Sys.remove p
    in
    Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir)
      (fun () -> k dir)
  in
  let heap_words () = (Gc.quick_stat ()).Gc.heap_words in
  let heap_at_start = heap_words () in
  let heap_peak = ref heap_at_start in
  let sample_heap _ = heap_peak := max !heap_peak (heap_words ()) in
  (* (ms, manifest complete, merged rows = total) *)
  let run total =
    with_tmpdir (fun dir ->
        let fingerprint =
          S.Eval.Corpus_stream.fingerprint ~source ~seed ~total
            ~options:[ "workload=derive" ]
        in
        let _, ms =
          time_ms (fun () ->
              S.Eval.Scheduler.map_checkpointed ~jobs:stream_jobs ~dir
                ~fingerprint ~progress:sample_heap ~f:derive total)
        in
        let complete = S.Eval.Manifest.is_complete (S.Eval.Manifest.load ~dir) in
        (* the lazy merge: count rows without ever materializing them *)
        let rows = S.Eval.Scheduler.fold_shards ~dir (fun n _ _ -> n + 1) 0 in
        sample_heap ();
        (ms, complete, rows = total))
  in
  let small_ms, small_complete, small_match = run stream_small in
  let large_ms, large_complete, large_match = run stream_large in
  let peak_mb =
    float_of_int ((!heap_peak - heap_at_start) * Sys.word_size / 8)
    /. 1_048_576.
  in
  let small_rate = float_of_int stream_small /. small_ms *. 1000. in
  let large_rate = float_of_int stream_large /. large_ms *. 1000. in
  let ratio = large_rate /. small_rate in
  Printf.printf
    "STREAM (generate-on-demand corpus through the checkpointed scheduler, \
     %d workers)\n\n\
    \  %8d rows: %8.1f ms  (%8.1f rows/s)\n\
    \  %8d rows: %8.1f ms  (%8.1f rows/s)\n\
    \  large/small throughput: %.3fx (flat = no per-row cost growth)\n\
    \  parent peak heap:       %.1f MB over this stage (shards merged lazily)\n\n%!"
    stream_jobs stream_small small_ms small_rate stream_large large_ms
    large_rate ratio peak_mb;
  ( [
      ("jobs", Json.int stream_jobs);
      ("small_rows", Json.int stream_small);
      ("large_rows", Json.int stream_large);
      ("small_ms", dec3 small_ms);
      ("large_ms", dec3 large_ms);
      ("small_rows_per_s", Json.Fixed (1, small_rate));
      ("large_rows_per_s", Json.Fixed (1, large_rate));
      ("large_over_small", dec3 ratio);
      ("rows_match", Json.Bool (small_match && large_match));
      ("manifest_complete", Json.Bool (small_complete && large_complete));
      ("parent_peak_heap_mb", Json.Fixed (1, peak_mb));
    ],
    [
      field "0 < small_rows < large_rows" [ "small_rows"; "large_rows" ]
        (fun a ->
          match (Json.mem_num "small_rows" a, Json.mem_num "large_rows" a) with
          | Some s, Some l -> 0. < s && s < l
          | _ -> false);
      holds "rows_match";
      holds "manifest_complete";
      timed_at_least "large_over_small" 0.9;
    ] )

(* {2 Serve stage: cold vs warm requests through the daemon}

   A daemon is forked onto a private Unix socket and the same evaluate
   requests are sent twice over one persistent connection: a cold pass
   (every request builds its warm per-worker session) and a warm pass
   repeating each request several times (every repeat is answered from
   the worker's digest-keyed caches).  Warm replies must be
   byte-identical to cold ones apart from the [warm] flag, and the
   daemon's own counters must account for every hit — those counter
   identities are deterministic gates; the warm speedup is wall-clock. *)

let () =
  stage "serve" @@ fun () ->
  let sources =
    variants
    |> List.filteri (fun i _ -> i < 4)
    |> List.map (fun (v : S.Benchmarks.Generate.variant) ->
           (v.id, S.Alloy.Pretty.source v.injected.faulty))
  in
  let sock = Printf.sprintf "/tmp/specrepair_bench_%d.sock" (Unix.getpid ()) in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let daemon =
    match Unix.fork () with
    | 0 ->
        (* the daemon's chatter must not interleave with the bench report *)
        let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        Unix.dup2 devnull Unix.stdout;
        Unix.close devnull;
        (match
           S.Serve.Daemon.run
             {
               S.Serve.Daemon.default_config with
               socket = Some sock;
               workers = 2;
             }
         with
        | () -> Unix._exit 0
        | exception _ -> Unix._exit 2)
    | pid -> pid
  in
  (* a stage that fails before the shutdown below must not leave the
     daemon running *)
  let reaped = ref false in
  Fun.protect ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill daemon Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] daemon)
      end)
  @@ fun () ->
  let rec await n =
    if Sys.file_exists sock then ()
    else if n = 0 then failwith "daemon socket never appeared"
    else begin
      Unix.sleepf 0.05;
      await (n - 1)
    end
  in
  await 200;
  let conn =
    match S.Serve.Client.connect (S.Serve.Client.Unix_sock sock) with
    | Ok c -> c
    | Error m -> failwith m
  in
  let ask line =
    match S.Serve.Client.roundtrip conn line with
    | Ok r -> r
    | Error m -> failwith m
  in
  let request id source =
    Json.(
      to_string
        (Obj
           [
             ("id", Str id);
             ("method", Str "evaluate");
             ("params", Obj [ ("source", Str source); ("file", Str id) ]);
           ]))
  in
  (* compare replies with the warmth flag neutralised *)
  let strip_warm s =
    let hot = {|"warm":true|} and cold = {|"warm":false|} in
    let buf = Buffer.create (String.length s) in
    let i = ref 0 in
    let n = String.length s in
    let matches p =
      let k = String.length p in
      !i + k <= n && String.sub s !i k = p
    in
    while !i < n do
      if matches hot || matches cold then begin
        Buffer.add_string buf {|"warm":_|};
        i := !i + String.length (if matches hot then hot else cold)
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  in
  let cold_replies, cold_ms =
    time_ms (fun () -> List.map (fun (id, src) -> ask (request id src)) sources)
  in
  let warm_replies, warm_ms =
    time_ms (fun () ->
        List.concat_map
          (fun (id, src) ->
            List.init serve_repeats (fun _ -> ask (request id src)))
          sources)
  in
  let requests_cold = List.length sources in
  let requests_warm = requests_cold * serve_repeats in
  let contains sub s =
    let k = String.length sub and n = String.length s in
    let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
    go 0
  in
  let replies_match =
    List.for_all2
      (fun (id, _) cold ->
        List.filter (contains ("\"id\":\"" ^ id ^ "\"")) warm_replies
        |> List.for_all (fun w -> strip_warm w = strip_warm cold))
      sources cold_replies
  in
  let status =
    ask
      Json.(
        to_string
          (Obj [ ("id", Str "st"); ("method", Str "status"); ("params", Obj []) ]))
  in
  let counter name =
    match Json.parse status with
    | Ok j -> (
        match Option.bind (Json.member "result" j) (Json.mem_int name) with
        | Some v -> v
        | None -> failwith ("status lacks " ^ name))
    | Error _ -> failwith "status reply is not JSON"
  in
  let cache_hits = counter "cache_hits" in
  let cache_misses = counter "cache_misses" in
  let worker_respawns = counter "worker_respawns" in
  let queue_high_water = counter "queue_high_water" in
  S.Serve.Client.close conn;
  Unix.kill daemon Sys.sigterm;
  let clean_shutdown =
    match Unix.waitpid [] daemon with
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  in
  reaped := true;
  let cold_rps = float_of_int requests_cold /. (cold_ms /. 1000.) in
  let warm_rps = float_of_int requests_warm /. (warm_ms /. 1000.) in
  let warm_speedup = warm_rps /. cold_rps in
  Printf.printf
    "SERVE (%d specs x %d warm repeats over a Unix socket, 2 workers)\n\n\
    \  cold pass:   %8.1f ms  (%.1f requests/s)\n\
    \  warm pass:   %8.1f ms  (%.1f requests/s, %.2fx)\n\
    \  counters:    %d hits, %d misses, %d respawns, queue high-water %d\n\
    \  shutdown:    %s\n\n%!"
    requests_cold serve_repeats cold_ms cold_rps warm_ms warm_rps warm_speedup
    cache_hits cache_misses worker_respawns queue_high_water
    (if clean_shutdown then "clean (exit 0)" else "NOT clean");
  ( [
      ("specs", Json.int requests_cold);
      ("repeats", Json.int serve_repeats);
      ("requests_cold", Json.int requests_cold);
      ("requests_warm", Json.int requests_warm);
      ("cold_ms", dec3 cold_ms);
      ("warm_ms", dec3 warm_ms);
      ("cold_rps", dec3 cold_rps);
      ("warm_rps", dec3 warm_rps);
      ("warm_speedup", dec3 warm_speedup);
      ("replies_match", Json.Bool replies_match);
      ("cache_hits", Json.int cache_hits);
      ("cache_misses", Json.int cache_misses);
      ("worker_respawns", Json.int worker_respawns);
      ("queue_high_water", Json.int queue_high_water);
      ("clean_shutdown", Json.Bool clean_shutdown);
    ],
    [
      positive "requests_cold";
      positive "requests_warm";
      fact "every reply is ok"
        (List.for_all S.Serve.Protocol.reply_is_ok (cold_replies @ warm_replies));
      fact "every warm repeat answered warm"
        (List.for_all (contains {|"warm":true|}) warm_replies);
      holds "replies_match";
      equal "cache_hits" "requests_warm";
      equal "cache_misses" "requests_cold";
      zero "worker_respawns";
      holds "clean_shutdown";
      fact "socket unlinked on shutdown" (not (Sys.file_exists sock));
      timed_at_least "warm_speedup" 2.0;
    ] )

(* {2 Hybrid stage: telemetry-learned portfolio vs the static pipeline}

   The model-panel extension of the paper's union analysis, made
   operational: a warmup study (the two bare-task traditional engines plus
   one Multi-Round/Auto run per panel profile) is mined into
   per-(defect-class × technique) statistics, then the same
   heterogeneous-defect task battery is repaired twice — through the
   static ATR→Multi-Round pipeline and through the learned ordering
   racing the top of the expected-value-per-millisecond ranking.  The
   deterministic gates: the panel union strictly exceeds every single
   profile's coverage, the battery spans several defect classes, mined
   statistics cover it, and a cold start (no statistics) reproduces the
   static pipeline bit-identically.  The time-to-first-repair speedup is
   wall-clock. *)

let () =
  stage "hybrid" @@ fun () ->
  (* The union analysis needs at least two variants per domain: at one,
     the strongest profile alone can tie the union and the strictly-
     exceeds gate is unpassable by construction, so this stage floors its
     own battery at 2 regardless of BENCH_SAMPLE. *)
  let hybrid_sample = max 2 sample_size in
  let hybrid_variants =
    if hybrid_sample = sample_size then variants
    else S.Benchmarks.Generate.sample ~per_domain:hybrid_sample ()
  in
  let panel_techniques =
    List.map
      (fun p -> S.Eval.Technique.Multi (S.Llm.Multi_round.Auto, p))
      S.Llm.Model.panel
  in
  let warm_techniques =
    S.Eval.Technique.ATR :: S.Eval.Technique.BeAFix :: panel_techniques
  in
  let warm_rows, mining_ms =
    time_ms (fun () ->
        S.Eval.Study.run ~techniques:warm_techniques hybrid_variants)
  in
  let stats = S.Eval.Learned.empty () in
  S.Eval.Learned.add_rows stats warm_rows;
  let mined_cells = List.length (S.Eval.Learned.cells stats) in
  (* the panel union analysis (Table III's data) over the warmup rows *)
  let per_profile, union = S.Eval.Tables.panel_coverage warm_rows in
  let union_n = List.length union in
  let union_strictly_exceeds =
    List.for_all
      (fun (_, _, repaired) -> List.length repaired < union_n)
      per_profile
  in
  let tasks = List.map S.Benchmarks.Generate.to_task hybrid_variants in
  let n_tasks = List.length tasks in
  let classes =
    List.sort_uniq compare
      (List.map S.Eval.Learned.defect_class_of_task tasks)
  in
  let planned =
    List.length
      (List.filter
         (fun t -> (S.Eval.Portfolio.plan ~stats t).S.Eval.Portfolio.learned)
         tasks)
  in
  (* a cold start (no statistics) must reproduce the static pipeline
     bit-identically — the fallback contract repair_learned documents *)
  let coldstart_identical =
    match tasks with
    | [] -> true
    | t :: _ ->
        fst (S.Eval.Portfolio.repair t)
        = (S.Eval.Portfolio.repair_learned t).S.Eval.Portfolio.result
  in
  (* time to first repair over the whole battery: each run stops at its
     first success, so the battery wall clock is the summed metric *)
  let static_results, static_ms =
    time_ms (fun () ->
        List.map (fun t -> fst (S.Eval.Portfolio.repair t)) tasks)
  in
  let learned_results, learned_ms =
    time_ms (fun () ->
        List.map
          (fun t ->
            (S.Eval.Portfolio.repair_learned ~stats t).S.Eval.Portfolio.result)
          tasks)
  in
  let repaired rs =
    List.length
      (List.filter (fun (r : S.Repair.Common.result) -> r.repaired) rs)
  in
  let static_repairs = repaired static_results in
  let learned_repairs = repaired learned_results in
  let speedup = static_ms /. learned_ms in
  Printf.printf
    "HYBRID (learned portfolio vs static pipeline on %d tasks over %d defect \
     classes)\n\n\
    \  warmup mining:      %8.1f ms (%d cells)\n\
    \  static pipeline:    %8.1f ms (%d/%d repaired)\n\
    \  learned ordering:   %8.1f ms (%d/%d repaired, %.2fx faster to first \
     repair)\n\
    \  learned plans:      %d/%d tasks had statistics for their class\n\
    \  panel union:        %d variants (strictly exceeds every profile: %b)\n\n%!"
    n_tasks (List.length classes) mining_ms mined_cells static_ms
    static_repairs n_tasks learned_ms learned_repairs n_tasks speedup planned
    n_tasks union_n union_strictly_exceeds;
  let profile (name, techs, repaired) =
    Json.Obj
      [
        ("name", Json.Str name);
        ("techniques", Json.int techs);
        ("repairs", Json.int (List.length repaired));
        ( "rate",
          Json.Fixed
            (4, float_of_int (List.length repaired) /. float_of_int n_tasks) );
      ]
  in
  ( [
      ("sample", Json.int hybrid_sample);
      ("tasks", Json.int n_tasks);
      ("defect_classes", Json.int (List.length classes));
      ("mined_cells", Json.int mined_cells);
      ("mining_ms", dec3 mining_ms);
      ("profiles", Json.List (List.map profile per_profile));
      ("union_repairs", Json.int union_n);
      ("union_strictly_exceeds", Json.Bool union_strictly_exceeds);
      ("planned_tasks", Json.int planned);
      ("coldstart_identical", Json.Bool coldstart_identical);
      ("static_ms", dec3 static_ms);
      ("learned_ms", dec3 learned_ms);
      ("static_repairs", Json.int static_repairs);
      ("learned_repairs", Json.int learned_repairs);
      ("speedup", dec3 speedup);
    ],
    [
      positive "mined_cells";
      field "profiles >= 4" [ "profiles" ] (fun a ->
          match Option.bind (Json.member "profiles" a) Json.to_list with
          | Some ps -> List.length ps >= 4
          | None -> false);
      holds "union_strictly_exceeds";
      at_least "defect_classes" 2.;
      positive "planned_tasks";
      holds "coldstart_identical";
      positive "learned_repairs";
      timed_at_least "speedup" 1.2;
    ] )

(* {2 The gate table} *)

let () =
  let judged = List.rev !judged in
  let count o = List.length (List.filter (fun (_, _, _, o') -> o' = o) judged) in
  Printf.printf "GATES%s\n\n"
    (if ci then " (CI=1: wall-clock gates skipped)" else "");
  List.iter
    (fun (stage, what, observed, outcome) ->
      Printf.printf "  %-4s  %-7s %-38s %s\n"
        (match outcome with Pass -> "pass" | Fail -> "FAIL" | Skipped -> "skip")
        stage what observed)
    judged;
  Printf.printf "\nbench: %d gates passed, %d skipped, %d failed\n"
    (count Pass) (count Skipped) (count Fail);
  if count Fail > 0 then exit 1
