(* Tests for the session layer: cooperative deadlines across every
   technique family, telemetry counters, budget/seed plumbing, and the
   Technique name round-trip. *)

open Specrepair_alloy
module Repair = Specrepair_repair
module Session = Repair.Session
module Telemetry = Specrepair_engine.Telemetry
module Aunit = Specrepair_aunit.Aunit
module Solver = Specrepair_solver
module Llm = Specrepair_llm
module Eval = Specrepair_eval
module B = Specrepair_benchmarks
module Mutate = Specrepair_mutation.Mutate
module Json = Specrepair_json
module Counters = Json.Counters

let faulty_src =
  {|
sig Node {
  edges: set Node
}
fact Acyclic {
  some n: Node | n in n.^edges
}
assert NoLoop {
  all n: Node | n not in n.^edges
}
check NoLoop for 3
run { some edges } for 3
|}

let ground_truth_src =
  {|
sig Node {
  edges: set Node
}
fact Acyclic {
  no n: Node | n in n.^edges
}
assert NoLoop {
  all n: Node | n not in n.^edges
}
check NoLoop for 3
run { some edges } for 3
|}

let env_of src = Typecheck.check (Parser.parse src)
let faulty_env = lazy (env_of faulty_src)

let task =
  lazy
    (Llm.Task.make ~spec_id:"sessiontest_0" ~domain:"graphs"
       ~faulty:(Parser.parse faulty_src)
       ~check_names:[ "NoLoop" ] ())

let check_timed_out label (r : Repair.Common.result) (env : Typecheck.env) =
  Alcotest.(check bool) (label ^ " reports timed_out") true r.timed_out;
  Alcotest.(check bool) (label ^ " does not claim success") false r.repaired;
  (* best-effort result is well-formed: the final spec type-checks *)
  Alcotest.(check bool) (label ^ " final spec type-checks") true
    (Result.is_ok (Typecheck.check_result r.final_spec));
  ignore env

(* A deadline of 0 ms is already expired at the first cooperative check:
   every technique family must abort and return a well-formed best-effort
   result flagged timed_out. *)

let test_deadline_traditional () =
  let env = Lazy.force faulty_env in
  let expired () = Session.create ~deadline_ms:0.0 env in
  let tests =
    Aunit.generate ~per_kind:2 (env_of ground_truth_src)
      ~scope:Solver.Analyzer.default_scope
  in
  check_timed_out "arepair"
    (Repair.Arepair.repair ~session:(expired ()) env tests)
    env;
  check_timed_out "icebar"
    (Repair.Icebar.repair ~session:(expired ()) env tests)
    env;
  check_timed_out "beafix" (Repair.Beafix.repair ~session:(expired ()) env) env;
  check_timed_out "atr" (Repair.Atr.repair ~session:(expired ()) env) env

let test_deadline_single_round () =
  let session = Session.for_spec ~deadline_ms:0.0 (Lazy.force task).faulty in
  let r = Llm.Single_round.repair ~session (Lazy.force task) Llm.Prompt.SLoc in
  Alcotest.(check bool) "single-round reports timed_out" true r.timed_out;
  Alcotest.(check bool) "no model round was spent" true (r.candidates_tried = 0);
  Alcotest.(check bool) "final spec type-checks" true
    (Result.is_ok (Typecheck.check_result r.final_spec))

let test_deadline_multi_round () =
  let session = Session.for_spec ~deadline_ms:0.0 (Lazy.force task).faulty in
  let r =
    Llm.Multi_round.repair ~session (Lazy.force task) Llm.Multi_round.Generic
  in
  Alcotest.(check bool) "multi-round reports timed_out" true r.timed_out;
  Alcotest.(check bool) "aborted before any round" true (r.iterations = 0);
  Alcotest.(check bool) "final spec type-checks" true
    (Result.is_ok (Typecheck.check_result r.final_spec))

let test_deadline_portfolio () =
  let session = Session.for_spec ~deadline_ms:0.0 (Lazy.force task).faulty in
  let r, stage = Eval.Portfolio.repair ~session (Lazy.force task) in
  Alcotest.(check bool) "portfolio reports timed_out" true r.timed_out;
  Alcotest.(check string) "portfolio stage" "unrepaired"
    (Eval.Portfolio.stage_to_string stage)

(* Without a deadline (or with a generous one) sessions must not perturb
   results: the study rows are identical either way, seed for seed. *)

let test_generous_deadline_identical_rows () =
  let variants = B.Generate.sample ~per_domain:1 () in
  let variants = List.filteri (fun i _ -> i < 3) variants in
  let techniques =
    [
      Eval.Technique.ATR;
      Eval.Technique.BeAFix;
      Eval.Technique.Multi (Llm.Multi_round.No_feedback, Llm.Model.gpt4);
    ]
  in
  let a = Eval.Study.run ~techniques variants in
  let b = Eval.Study.run ~deadline_ms:1e9 ~techniques variants in
  List.iter2
    (fun (x : Eval.Study.spec_result) (y : Eval.Study.spec_result) ->
      Alcotest.(check string) "variant" x.variant_id y.variant_id;
      Alcotest.(check string) "technique" x.technique y.technique;
      Alcotest.(check int) ("rep for " ^ x.variant_id) x.rep y.rep;
      Alcotest.(check (float 1e-9)) "tm" x.tm y.tm;
      Alcotest.(check (float 1e-9)) "sm" x.sm y.sm;
      Alcotest.(check bool) "tool_claimed" x.tool_claimed y.tool_claimed)
    a b

(* {2 Telemetry} *)

let test_telemetry_counters () =
  let env = Lazy.force faulty_env in
  let session = Session.create env in
  let r = Repair.Beafix.repair ~session env in
  Alcotest.(check bool) "repair succeeded" true r.repaired;
  (* BeAFix's candidate count settles when the session stops *)
  Session.stop_clock session;
  let t = Session.telemetry session in
  let n = Counters.find t in
  Alcotest.(check bool) "candidates evaluated >= 1" true
    (n "candidates_evaluated" >= 1);
  Alcotest.(check bool) "candidates generated >= evaluated" true
    (n "candidates_generated" >= n "candidates_evaluated");
  Alcotest.(check bool) "solver was queried" true
    (Telemetry.solver_queries t >= 1);
  Alcotest.(check bool) "phase timers recorded" true
    (List.mem_assoc "mutation" (Session.phases session))

(* A BeAFix session handed the store of an earlier one (as a warm serve
   entry hands it) reads its depth-1 list from there: the telemetry
   [spaces] object shows a reuse and no build, where the cold session
   shows the build; the two runs generate and try the same candidates.
   Stopped, each reports the whole list's length, 860, as
   [candidates_generated] and [pool_peak], as when the list was built in
   full before the search. *)
let test_warm_candidate_list () =
  let store = Specrepair_mutation.Space.create_store () in
  let run env =
    let session = Session.create ~spaces:store env in
    let r = Repair.Beafix.repair ~session env in
    Session.stop_clock session;
    let j = Result.get_ok (Json.parse (Session.telemetry_json session)) in
    let spaces = Option.get (Json.member "spaces" j) in
    ( r,
      (Json.mem_int "candidates_generated" j, Json.mem_int "pool_peak" j),
      (Json.mem_int "lists_built" spaces, Json.mem_int "lists_reused" spaces)
    )
  in
  let cold_r, cold_generated, cold_lists = run (Lazy.force faulty_env) in
  (* a second parse: structurally equal, physically distinct *)
  let warm_r, warm_generated, warm_lists = run (env_of faulty_src) in
  Alcotest.(check (pair (option int) (option int)))
    "cold: one list built" (Some 1, Some 0) cold_lists;
  Alcotest.(check (pair (option int) (option int)))
    "warm: one list reused" (Some 0, Some 1) warm_lists;
  Alcotest.(check (pair (option int) (option int)))
    "cold: the whole list counted" (Some 860, Some 860) cold_generated;
  Alcotest.(check (pair (option int) (option int)))
    "same candidates generated" cold_generated warm_generated;
  Alcotest.(check bool) "same result" true
    (cold_r.repaired = warm_r.repaired
    && cold_r.candidates_tried = warm_r.candidates_tried
    && Ast.equal_spec cold_r.final_spec warm_r.final_spec)

(* BeAFix builds a node's pool replacements only when its search reaches
   them.  The fault here is repaired by a structural edit, so a session
   that is never stopped (a serve request) leaves every pool unbuilt, and
   stopping it builds them all for the count. *)
let test_pools_on_demand () =
  let module Space = Specrepair_mutation.Space in
  let env = Lazy.force faulty_env in
  let store = Space.create_store () in
  let session = Session.create ~spaces:store env in
  let r = Repair.Beafix.repair ~session env in
  Alcotest.(check bool) "repaired" true r.repaired;
  (* the sites BeAFix swept: the first [locations] constraint roots *)
  let sites =
    Specrepair_faultloc.Faultloc.candidate_locations env.spec
      ~sites:(Specrepair_mutation.Location.sites env.spec)
    |> List.filter (fun (_, path) -> path = [])
    |> List.filteri (fun i _ -> i < Session.default_budget.locations)
    |> List.map fst
  in
  let list = Space.candidates store env ~sites ~with_pool:true in
  let lists key = Counters.find (Space.stats store) key in
  Alcotest.(check (pair int int)) "the list BeAFix swept" (1, 1)
    (lists "lists_built", lists "lists_reused");
  Alcotest.(check int) "no pool built" 0 (Space.pools_built list);
  Alcotest.(check int) "nothing counted yet" 0
    (Counters.find (Session.telemetry session) "candidates_generated");
  Session.stop_clock session;
  Alcotest.(check bool) "stopping builds every pool" true
    (Space.pools_built list > 0
    && Space.pools_built list
       = Specrepair_mutation.(
           List.length (Mutate.candidates_by_node env ~sites ~with_pool:true)));
  Alcotest.(check int) "stopping counts the whole list" (Space.length list)
    (Counters.find (Session.telemetry session) "candidates_generated")

(* The Multi-Round pipeline builds one proposal distribution per round and
   draws its best-of-k self-check proposals from it, so builds never
   outnumber rounds. *)
let test_proposal_builds_per_round () =
  let file =
    if Sys.file_exists "../specs/graph_faulty.als" then
      "../specs/graph_faulty.als"
    else "specs/graph_faulty.als"
  in
  let src = In_channel.with_open_bin file In_channel.input_all in
  let env = Typecheck.check (Parser.parse src) in
  let session = Session.create env in
  let task =
    Llm.Task.make ~spec_id:file ~domain:"cli" ~faulty:env.Typecheck.spec ()
  in
  ignore
    (Llm.Multi_round.repair ~session ~profile:Llm.Model.gpt4 task
       Llm.Multi_round.Generic);
  let n = Counters.find (Session.telemetry session) in
  Alcotest.(check bool) "at least one round" true (n "llm_rounds" >= 1);
  Alcotest.(check bool) "at least one proposal build" true
    (n "proposal_builds" >= 1);
  Alcotest.(check bool) "proposal_builds <= llm_rounds" true
    (n "proposal_builds" <= n "llm_rounds")

(* The keys of a telemetry line and of the parallel study's scheduler
   line, in order: both are read by key name downstream (perfbench, CI,
   the learned portfolio), and the study JSONL is compared byte for byte,
   so the order is part of the schema. *)
let keys = function
  | Json.Obj fields -> List.map fst fields
  | _ -> Alcotest.fail "not an object"

let test_telemetry_json_parses () =
  let env = Lazy.force faulty_env in
  let session = Session.create env in
  ignore (Repair.Atr.repair ~session env);
  let json = Session.telemetry_json ~extra:[ ("tool", "ATR") ] session in
  Alcotest.(check bool) "single line" false (String.contains json '\n');
  let j = Result.get_ok (Json.parse json) in
  let check_keys label expected obj =
    Alcotest.(check (list string)) (label ^ " keys") expected (keys obj)
  in
  check_keys "telemetry line"
    [
      "tool"; "elapsed_ms"; "timed_out"; "solver_queries"; "sat_verdicts";
      "unsat_verdicts"; "unknown_verdicts"; "instance_queries"; "enumerations";
      "candidates_generated"; "candidates_evaluated"; "llm_rounds";
      "proposal_builds"; "pool_peak"; "deadline_checks"; "certified_unsat";
      "certificate_failures"; "oracle"; "sat"; "sat_fresh"; "eval"; "spaces";
      "phases";
    ]
    j;
  let sub name = Option.get (Json.member name j) in
  check_keys "oracle"
    [
      "verdict_hits"; "verdict_misses"; "instance_hits"; "instance_misses";
      "fallback_queries"; "formulas_translated"; "formulas_reused"; "contexts";
      "contexts_retired"; "certified"; "certificate_failures"; "definitions";
      "definitions_shared"; "keys_digested"; "keys_reused"; "witness_hits";
      "witness_checks"; "witnesses_stored"; "core_hits"; "cores_stored";
    ]
    (sub "oracle");
  List.iter
    (fun schema ->
      check_keys schema
        [
          "conflicts"; "decisions"; "propagations"; "restarts"; "reductions";
        ]
        (sub schema))
    [ "sat"; "sat_fresh" ];
  check_keys "eval"
    [
      "implicit_evaluated"; "implicit_memoized"; "facts_evaluated";
      "facts_memoized";
    ]
    (sub "eval");
  check_keys "spaces"
    [ "built"; "reused"; "evicted"; "lists_built"; "lists_reused" ]
    (sub "spaces");
  let lines = ref [] in
  ignore
    (Eval.Study.run ~jobs:2
       ~telemetry:(fun l -> lines := l :: !lines)
       ~techniques:[ Eval.Technique.ATR ]
       [ List.hd (B.Generate.sample ~per_domain:1 ()) ]);
  let last = Result.get_ok (Json.parse (List.hd !lines)) in
  check_keys "scheduler line" [ "scheduler" ] last;
  check_keys "scheduler"
    [
      "jobs"; "chunks_dispatched"; "chunks_completed"; "rows_completed";
      "retries"; "workers_spawned"; "workers_lost"; "heartbeat_kills";
    ]
    (Option.get (Json.member "scheduler" last))

(* With ~certify:true every UNSAT verdict the repair relies on must come
   with a DRUP certificate the independent checker accepts; the outcomes
   land in the oracle's counters, and the telemetry line prints the
   session's share at its top level as well as in its oracle object. *)
let test_certified_repair () =
  let env = Lazy.force faulty_env in
  let session = Session.create ~certify:true env in
  let r = Repair.Beafix.repair ~session env in
  Alcotest.(check bool) "repair succeeded" true r.repaired;
  let j = Result.get_ok (Json.parse (Session.telemetry_json session)) in
  let oracle = Option.get (Json.member "oracle" j) in
  Alcotest.(check bool) "some UNSAT verdicts were certified" true
    (Option.get (Json.mem_int "certified_unsat" j) >= 1);
  Alcotest.(check (option int)) "no certificate failures" (Some 0)
    (Json.mem_int "certificate_failures" j);
  Alcotest.(check (option int)) "oracle object agrees with the top level"
    (Json.mem_int "certified_unsat" j)
    (Json.mem_int "certified" oracle);
  Alcotest.(check (option int)) "oracle object reports no failures" (Some 0)
    (Json.mem_int "certificate_failures" oracle);
  (* certification is an observer: the verdicts themselves are unchanged *)
  let plain = Repair.Beafix.repair ~session:(Session.create env) env in
  Alcotest.(check bool) "same outcome without certification" r.repaired
    plain.repaired

(* A study row's telemetry line and its CSV row report the same time: the
   session clock stops when the engine returns, before REP / TM / SM
   scoring, so the line's [elapsed_ms] is the row's [time_ms] (to the
   line's three decimals) rather than the row time plus scoring.  The
   line's oracle object also carries the retirement count, the key memo's
   counters and the clausifier's definition counters (shared ones a
   subset), and it counts the technique's verdict queries only: REP
   scores through the same domain oracle, so a line built after scoring
   would book REP's hits and misses to the technique.  Every verdict
   query the session records is exactly one verdict hit, miss or
   fallback. *)
let test_study_line_elapsed_is_row_time () =
  let v = List.hd (B.Generate.sample ~per_domain:1 ()) in
  List.iter
    (fun technique ->
      let line = ref "" in
      let before = Specrepair_alloy.Eval.counters () in
      let r = Eval.Study.run_one ~telemetry:(( := ) line) technique v in
      let after = Specrepair_alloy.Eval.counters () in
      let j = Result.get_ok (Json.parse !line) in
      let name = Eval.Technique.name technique in
      (* the row's evaluator work, all of it inside the engine's session *)
      let ev = Option.get (Json.member "eval" j) in
      List.iter
        (fun (field, _, n) ->
          Alcotest.(check (option int))
            (Printf.sprintf "%s: eval.%s is the row's delta" name field)
            (Some n) (Json.mem_int field ev))
        (Counters.bindings (Counters.since ~base:before after));
      let implicit c =
        Counters.find c "implicit_evaluated"
        + Counters.find c "implicit_memoized"
      in
      (match technique with
      | Eval.Technique.ARepair | Eval.Technique.ICEBAR ->
          Alcotest.(check bool)
            (name ^ ": AUnit scoring decides implicit constraints")
            true
            (implicit after > implicit before)
      | _ -> ());
      Alcotest.(check (option string))
        (name ^ ": elapsed_ms = time_ms")
        (Some (Printf.sprintf "%.3f" r.time_ms))
        (Option.map (Printf.sprintf "%.3f") (Json.mem_num "elapsed_ms" j));
      let oracle = Option.get (Json.member "oracle" j) in
      List.iter
        (fun field ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: oracle.%s present" name field)
            true
            (Json.mem_int field oracle <> None))
        [ "contexts_retired"; "keys_digested"; "keys_reused" ];
      (match
         ( Json.mem_int "definitions" oracle,
           Json.mem_int "definitions_shared" oracle )
       with
      | Some defs, Some shared ->
          if shared > defs then
            Alcotest.failf "%s: %d of %d definitions shared" name shared defs
      | _ -> Alcotest.failf "%s: oracle definition counters missing" name);
      let sum obj fields =
        List.fold_left
          (fun acc f -> acc + Option.get (Json.mem_int f obj))
          0 fields
      in
      (* every proposal build looks its mutation space up in the domain's
         store once: built or reused *)
      (match Json.member "spaces" j with
      | Some spaces ->
          List.iter
            (fun f ->
              match Json.mem_int f spaces with
              | Some n when n >= 0 -> ()
              | _ -> Alcotest.failf "%s: spaces.%s missing or negative" name f)
            [ "built"; "reused"; "evicted"; "lists_built"; "lists_reused" ];
          Alcotest.(check int)
            (name ^ ": spaces built + reused = proposal_builds")
            (sum j [ "proposal_builds" ])
            (sum spaces [ "built"; "reused" ]);
          (match technique with
          | Eval.Technique.Single _ | Eval.Technique.Multi _ ->
              if sum j [ "proposal_builds" ] = 0 then
                Alcotest.failf "%s: no proposal build" name
          | _ -> ())
      | None -> Alcotest.failf "%s: spaces object missing" name);
      Alcotest.(check int)
        (name ^ ": verdicts recorded = verdict hits + misses + fallbacks")
        (sum j [ "sat_verdicts"; "unsat_verdicts"; "unknown_verdicts" ])
        (sum oracle [ "verdict_hits"; "verdict_misses"; "fallback_queries" ]))
    Eval.Technique.all

(* {2 Bounded solving contexts}

   The oracle retires a context once it holds more than three times what a
   query uses.  Over every domain, a stream of single mutations of the
   ground truth long enough to retire contexts must look exactly like
   fresh solving: the same verdicts, the same instances, every UNSAT
   certified under [~certify:true], and oracle and SAT counters that never
   run backwards across a retirement.  Structural sharing makes contexts
   grow at different rates per domain, so each domain's stream runs for at
   least [retirement_floor] candidates and then until its plain oracle has
   retired a context.  Stored witnesses and cores answer most queries
   without touching a context, so the oracles are created under
   SPECREPAIR_NO_CACHE=1, which stores neither: every query that misses the
   verdict cache is solved in a context. *)

let retirement_floor = 40

let retirement_stream d =
  let base = B.Domains.env d in
  Mutate.all_mutations base base.spec ()
  |> List.to_seq
  |> Seq.filter_map (fun m ->
         match Typecheck.check_result (Mutate.apply base.spec m) with
         | Ok env -> Some env
         | Error _ | (exception _) -> None)

let tag = Solver.Analyzer.outcome_verdict

let check_deltas_nonnegative label session =
  List.iter
    (fun delta ->
      List.iter
        (fun (key, kind, n) ->
          if kind = Counters.Counter && n < 0 then
            Alcotest.failf "%s: %s.%s delta is %d" label (Counters.name delta)
              key n)
        (Counters.bindings delta))
    (Session.deltas session)

let bypassed f =
  let old = Option.value ~default:"" (Sys.getenv_opt "SPECREPAIR_NO_CACHE") in
  Unix.putenv "SPECREPAIR_NO_CACHE" "1";
  Fun.protect ~finally:(fun () -> Unix.putenv "SPECREPAIR_NO_CACHE" old) f

let test_retirement_invisible () =
  List.iter
    (fun (d : B.Domains.t) ->
      let base = B.Domains.env d in
      let plain = bypassed (fun () -> Solver.Oracle.create base) in
      let certified =
        bypassed (fun () -> Solver.Oracle.create ~certify:true base)
      in
      let check_candidate (env : Typecheck.env) =
        (* a session per candidate, as a study row has one *)
        let session = Session.create ~oracle:plain base in
        List.iter
          (fun (c : Ast.command) ->
            let fresh = Solver.Analyzer.run_command env c in
            let v = Session.command_verdict session env c in
            if v <> tag fresh then
              Alcotest.failf "%s: incremental verdict differs from fresh"
                d.name;
            (match (Session.run_command session env c, fresh) with
            | Solver.Analyzer.Sat a, Solver.Analyzer.Sat b
              when Instance.equal a b ->
                ()
            | Solver.Analyzer.Unsat, Solver.Analyzer.Unsat
            | Solver.Analyzer.Unknown, Solver.Analyzer.Unknown ->
                ()
            | _ -> Alcotest.failf "%s: instance differs from fresh" d.name);
            let before = Solver.Oracle.stats certified in
            let cv = Solver.Oracle.command_verdict certified env c in
            let after = Solver.Oracle.stats certified in
            let delta key = Counters.(find after key - find before key) in
            if cv <> v then
              Alcotest.failf "%s: certifying oracle disagrees" d.name;
            if cv = `Unsat && delta "verdict_misses" > 0 && delta "certified" <> 1
            then Alcotest.failf "%s: an UNSAT verdict went uncertified" d.name)
          env.spec.commands;
        check_deltas_nonnegative d.name session
      in
      let rec run i stream =
        if i >= retirement_floor
           && Counters.find (Solver.Oracle.stats plain) "contexts_retired" > 0
        then ()
        else
          match stream () with
          | Seq.Nil -> ()
          | Seq.Cons (env, rest) ->
              check_candidate env;
              run (i + 1) rest
      in
      run 0 (retirement_stream d);
      Alcotest.(check bool)
        (d.name ^ ": the stream retired a context")
        true
        (Counters.find (Solver.Oracle.stats plain) "contexts_retired" > 0);
      Alcotest.(check int)
        (d.name ^ ": no certificate failures")
        0
        (Counters.find (Solver.Oracle.stats certified) "certificate_failures"))
    B.Domains.all

let test_session_budget_and_seed () =
  let env = Lazy.force faulty_env in
  let budget = { Session.default_budget with max_candidates = 7 } in
  let s = Session.create ~budget ~seed:17 env in
  Alcotest.(check int) "budget carried" 7 (Session.budget s).max_candidates;
  Alcotest.(check int) "seed carried" 17 (Session.seed s);
  let derived =
    Session.with_budget s (fun b -> { b with Session.max_candidates = 3 })
  in
  Alcotest.(check int) "derived budget" 3
    (Session.budget derived).max_candidates;
  Alcotest.(check int) "derived seed shared" 17 (Session.seed derived);
  Alcotest.(check bool) "telemetry shared" true
    (Session.telemetry derived == Session.telemetry s);
  Alcotest.(check bool) "no deadline, never expires" false (Session.expired s)

(* {2 Technique roster} *)

let test_technique_roundtrip () =
  Alcotest.(check int) "twelve techniques" 12 (List.length Eval.Technique.all);
  List.iter
    (fun t ->
      match Eval.Technique.of_name (Eval.Technique.name t) with
      | Some t' ->
          Alcotest.(check string)
            ("round-trip " ^ Eval.Technique.name t)
            (Eval.Technique.name t) (Eval.Technique.name t')
      | None ->
          Alcotest.failf "of_name failed for %s" (Eval.Technique.name t))
    Eval.Technique.all;
  Alcotest.(check bool) "unknown name rejected" true
    (Eval.Technique.of_name "NoSuchTool" = None)

let () =
  Alcotest.run "session"
    [
      ( "deadline",
        [
          Alcotest.test_case "traditional tools" `Quick
            test_deadline_traditional;
          Alcotest.test_case "single-round" `Quick test_deadline_single_round;
          Alcotest.test_case "multi-round" `Quick test_deadline_multi_round;
          Alcotest.test_case "portfolio" `Quick test_deadline_portfolio;
          Alcotest.test_case "generous deadline is a no-op" `Slow
            test_generous_deadline_identical_rows;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "counters" `Quick test_telemetry_counters;
          Alcotest.test_case "warm candidate list" `Quick
            test_warm_candidate_list;
          Alcotest.test_case "pools built on demand" `Quick
            test_pools_on_demand;
          Alcotest.test_case "proposal builds per round" `Quick
            test_proposal_builds_per_round;
          Alcotest.test_case "certified repair" `Quick test_certified_repair;
          Alcotest.test_case "json" `Quick test_telemetry_json_parses;
          Alcotest.test_case "study line elapsed is row time" `Quick
            test_study_line_elapsed_is_row_time;
          Alcotest.test_case "budget and seed" `Quick
            test_session_budget_and_seed;
        ] );
      ( "bounded contexts",
        [
          Alcotest.test_case "retirement is invisible" `Quick
            test_retirement_invisible;
        ] );
      ( "techniques",
        [ Alcotest.test_case "name round-trip" `Quick test_technique_roundtrip ] );
    ]
