module Alloy = Specrepair_alloy
module Solver = Specrepair_solver
module Space = Specrepair_mutation.Space

type budget = {
  max_depth : int;
  max_candidates : int;
  max_iterations : int;
  max_conflicts : int;
  locations : int;
  use_pool : bool;
}

let default_budget =
  {
    max_depth = 2;
    max_candidates = 800;
    max_iterations = 4;
    max_conflicts = 20_000;
    locations = 6;
    use_pool = true;
  }

type t = {
  env : Alloy.Typecheck.env;
  oracle : Solver.Oracle.t;
  budget : budget;
  seed : int;
  started_ns : int64;
  stopped_ms : float option ref;  (* set by [stop_clock]; shared *)
  deadline_ns : int64 option;  (* absolute, on the monotonic clock *)
  deadline_rel_ms : float option;
  telemetry : Telemetry.t;
  oracle_base : Solver.Oracle.stats;  (* snapshot at creation, for deltas *)
  sat_base : Solver.Oracle.sat_stats;
  eval_base : Alloy.Eval.counters;
  spaces : Space.store;  (* shared with derived sessions *)
  spaces_base : Space.stats;
  expiry : bool ref;  (* latched; shared with derived sessions *)
}

let now_ns () = Monotonic_clock.now ()

let create ?oracle ?(certify = false) ?(simplify = false) ?(portfolio = 1)
    ?(budget = default_budget) ?(seed = 42) ?deadline_ms
    ?(spaces = Space.create_store ()) env =
  let telemetry = Telemetry.create () in
  let oracle =
    match oracle with
    | Some o -> o
    | None ->
        Solver.Oracle.create ~certify ~simplify ~portfolio
          ~on_certify:(Telemetry.record_certified telemetry)
          env
  in
  let started_ns = now_ns () in
  {
    env;
    oracle;
    budget;
    seed;
    started_ns;
    stopped_ms = ref None;
    deadline_ns =
      Option.map
        (fun ms -> Int64.add started_ns (Int64.of_float (ms *. 1e6)))
        deadline_ms;
    deadline_rel_ms = deadline_ms;
    telemetry;
    oracle_base = Solver.Oracle.stats oracle;
    sat_base = Solver.Oracle.sat_stats oracle;
    eval_base = Alloy.Eval.counters ();
    spaces;
    spaces_base = Space.stats spaces;
    expiry = ref false;
  }

let for_spec ?oracle ?certify ?simplify ?portfolio ?budget ?seed ?deadline_ms
    spec =
  let env =
    match Alloy.Typecheck.check_result spec with
    | Ok env -> env
    | Error _ ->
        (* ill-typed input (an LLM task whose faulty spec does not check):
           anchor on the empty spec; every candidate is sig-incompatible and
           the oracle serves it by fresh-solve fallback, transparently *)
        Alloy.Typecheck.check Alloy.Ast.empty_spec
  in
  create ?oracle ?certify ?simplify ?portfolio ?budget ?seed ?deadline_ms env

let with_budget t f = { t with budget = f t.budget }

let budget t = t.budget
let seed t = t.seed
let telemetry t = t.telemetry
let spaces t = t.spaces

let expired t =
  match t.deadline_ns with
  | None -> false
  | Some _ when !(t.expiry) -> true
  | Some deadline ->
      Telemetry.deadline_check t.telemetry;
      if Int64.compare (now_ns ()) deadline >= 0 then begin
        t.expiry := true;
        true
      end
      else false

let timed_out t = !(t.expiry)

let elapsed_ms t =
  match !(t.stopped_ms) with
  | Some ms -> ms
  | None -> Int64.to_float (Int64.sub (now_ns ()) t.started_ns) /. 1e6

let stop_clock t =
  if !(t.stopped_ms) = None then t.stopped_ms := Some (elapsed_ms t)

let time t phase f =
  let t0 = now_ns () in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.add_phase_ms t.telemetry phase
        (Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6))
    f

let command_verdict ?max_conflicts t env cmd =
  let v = Solver.Oracle.command_verdict ?max_conflicts t.oracle env cmd in
  Telemetry.record_verdict t.telemetry v;
  v

let run_command ?max_conflicts t env cmd =
  Telemetry.record_instance_query t.telemetry;
  Solver.Oracle.run_command ?max_conflicts t.oracle env cmd

let enumerate ?limit ?max_conflicts t env scope f =
  Telemetry.record_enumeration t.telemetry;
  Solver.Oracle.enumerate ?limit ?max_conflicts t.oracle env scope f

let sat_stats t =
  let s = Solver.Oracle.sat_stats t.oracle and b = t.sat_base in
  {
    Solver.Oracle.conflicts = s.conflicts - b.conflicts;
    decisions = s.decisions - b.decisions;
    propagations = s.propagations - b.propagations;
    restarts = s.restarts - b.restarts;
    reductions = s.reductions - b.reductions;
    subsumed = s.subsumed - b.subsumed;
    strengthened = s.strengthened - b.strengthened;
    vivified = s.vivified - b.vivified;
    eliminated = s.eliminated - b.eliminated;
  }

let oracle_stats t =
  let s = Solver.Oracle.stats t.oracle and b = t.oracle_base in
  {
    Solver.Oracle.verdict_hits = s.verdict_hits - b.verdict_hits;
    verdict_misses = s.verdict_misses - b.verdict_misses;
    instance_hits = s.instance_hits - b.instance_hits;
    instance_misses = s.instance_misses - b.instance_misses;
    fallback_queries = s.fallback_queries - b.fallback_queries;
    formulas_translated = s.formulas_translated - b.formulas_translated;
    formulas_reused = s.formulas_reused - b.formulas_reused;
    contexts = s.contexts;
    contexts_retired = s.contexts_retired - b.contexts_retired;
    certified = s.certified - b.certified;
    certificate_failures = s.certificate_failures - b.certificate_failures;
    definitions = s.definitions - b.definitions;
    definitions_shared = s.definitions_shared - b.definitions_shared;
    keys_digested = s.keys_digested - b.keys_digested;
    keys_reused = s.keys_reused - b.keys_reused;
  }

let eval_stats t =
  let s = Alloy.Eval.counters () and b = t.eval_base in
  {
    Alloy.Eval.implicit_evaluated = s.implicit_evaluated - b.implicit_evaluated;
    implicit_memoized = s.implicit_memoized - b.implicit_memoized;
    facts_evaluated = s.facts_evaluated - b.facts_evaluated;
    facts_memoized = s.facts_memoized - b.facts_memoized;
  }

let space_stats t =
  let s = Space.stats t.spaces and b = t.spaces_base in
  {
    Space.built = s.built - b.built;
    reused = s.reused - b.reused;
    evicted = s.evicted - b.evicted;
    lists_built = s.lists_built - b.lists_built;
    lists_reused = s.lists_reused - b.lists_reused;
  }

(* {2 JSON serialization} *)

let telemetry_json ?(extra = []) t =
  let module Json = Specrepair_json in
  let ms f = Json.Fixed (3, f) in
  let obj fields = Json.Obj (List.map (fun (k, n) -> (k, Json.int n)) fields) in
  let m = t.telemetry in
  let os = oracle_stats t
  and ss = sat_stats t
  and es = eval_stats t
  and ps = space_stats t in
  Json.to_string
    (Json.Obj
       (List.map (fun (k, v) -> (k, Json.Str v)) extra
       @ [
           ("elapsed_ms", ms (elapsed_ms t));
           ("timed_out", Json.Bool (timed_out t));
           ("solver_queries", Json.int (Telemetry.solver_queries m));
           ("sat_verdicts", Json.int m.Telemetry.sat_verdicts);
           ("unsat_verdicts", Json.int m.unsat_verdicts);
           ("unknown_verdicts", Json.int m.unknown_verdicts);
           ("instance_queries", Json.int m.instance_queries);
           ("enumerations", Json.int m.enumerations);
           ("candidates_generated", Json.int m.candidates_generated);
           ("candidates_evaluated", Json.int m.candidates_evaluated);
           ("llm_rounds", Json.int m.llm_rounds);
           ("proposal_builds", Json.int m.proposal_builds);
           ("pool_peak", Json.int m.pool_peak);
           ("deadline_checks", Json.int m.deadline_checks);
           ("certified_unsat", Json.int m.certified_unsat);
           ("certificate_failures", Json.int m.certificate_failures);
           ( "oracle",
             obj
               [
                 ("verdict_hits", os.Solver.Oracle.verdict_hits);
                 ("verdict_misses", os.verdict_misses);
                 ("instance_hits", os.instance_hits);
                 ("instance_misses", os.instance_misses);
                 ("fallback_queries", os.fallback_queries);
                 ("formulas_translated", os.formulas_translated);
                 ("formulas_reused", os.formulas_reused);
                 ("contexts", os.contexts);
                 ("contexts_retired", os.contexts_retired);
                 ("certified", os.certified);
                 ("certificate_failures", os.certificate_failures);
                 ("definitions", os.definitions);
                 ("definitions_shared", os.definitions_shared);
                 ("keys_digested", os.keys_digested);
                 ("keys_reused", os.keys_reused);
               ] );
           ( "sat",
             obj
               [
                 ("conflicts", ss.Solver.Oracle.conflicts);
                 ("decisions", ss.decisions);
                 ("propagations", ss.propagations);
                 ("restarts", ss.restarts);
                 ("reductions", ss.reductions);
                 ("subsumed", ss.subsumed);
                 ("strengthened", ss.strengthened);
                 ("vivified", ss.vivified);
                 ("eliminated", ss.eliminated);
               ] );
           ( "eval",
             obj
               [
                 ("implicit_evaluated", es.Alloy.Eval.implicit_evaluated);
                 ("implicit_memoized", es.implicit_memoized);
                 ("facts_evaluated", es.facts_evaluated);
                 ("facts_memoized", es.facts_memoized);
               ] );
           ( "spaces",
             obj
               [
                 ("built", ps.Space.built);
                 ("reused", ps.reused);
                 ("evicted", ps.evicted);
                 ("lists_built", ps.lists_built);
                 ("lists_reused", ps.lists_reused);
               ] );
           ( "phases",
             Json.Obj
               (List.map (fun (phase, v) -> (phase, ms v)) (Telemetry.phases m))
           );
         ]))

