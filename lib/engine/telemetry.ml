module Counters = Specrepair_json.Counters

type t = Counters.t

let schema = Counters.schema "telemetry"
let counter = Counters.counter schema

(* solver queries by answer; [unknown] exhausted its conflict budget *)
let sat_verdicts = counter "sat_verdicts"
let unsat_verdicts = counter "unsat_verdicts"
let unknown_verdicts = counter "unknown_verdicts"

(* witness / counterexample solves, and instance-enumeration sweeps *)
let instance_queries = counter "instance_queries"
let enumerations = counter "enumerations"

(* candidate specs produced by mutation / templates / proposals, and those
   actually scored against tests or the oracle *)
let candidates_generated = counter "candidates_generated"
let candidates_evaluated = counter "candidates_evaluated"

(* dialogue rounds of the LLM pipelines, and the proposal distributions
   they built: one per self-check loop, however many proposals it draws *)
let llm_rounds = counter "llm_rounds"
let proposal_builds = counter "proposal_builds"

(* the largest single mutation / template pool *)
let pool_peak = Counters.gauge schema "pool_peak"

(* cooperative deadline polls performed *)
let deadline_checks = counter "deadline_checks"

let create () = Counters.create schema
let incr = Counters.incr

let record_verdict t v =
  incr t
    (match v with
    | `Sat -> sat_verdicts
    | `Unsat -> unsat_verdicts
    | `Unknown -> unknown_verdicts)

let record_pool t n =
  Counters.add t candidates_generated n;
  Counters.max t pool_peak n

let solver_queries t =
  Counters.get t sat_verdicts
  + Counters.get t unsat_verdicts
  + Counters.get t unknown_verdicts
