type t = {
  mutable sat_verdicts : int;
  mutable unsat_verdicts : int;
  mutable unknown_verdicts : int;
  mutable instance_queries : int;
  mutable enumerations : int;
  mutable candidates_generated : int;
  mutable candidates_evaluated : int;
  mutable llm_rounds : int;
  mutable proposal_builds : int;
  mutable pool_peak : int;
  mutable deadline_checks : int;
  mutable certified_unsat : int;
  mutable certificate_failures : int;
  phase_ms : (string, float) Hashtbl.t;
}

let create () =
  {
    sat_verdicts = 0;
    unsat_verdicts = 0;
    unknown_verdicts = 0;
    instance_queries = 0;
    enumerations = 0;
    candidates_generated = 0;
    candidates_evaluated = 0;
    llm_rounds = 0;
    proposal_builds = 0;
    pool_peak = 0;
    deadline_checks = 0;
    certified_unsat = 0;
    certificate_failures = 0;
    phase_ms = Hashtbl.create 8;
  }

let record_verdict t = function
  | `Sat -> t.sat_verdicts <- t.sat_verdicts + 1
  | `Unsat -> t.unsat_verdicts <- t.unsat_verdicts + 1
  | `Unknown -> t.unknown_verdicts <- t.unknown_verdicts + 1

let record_instance_query t = t.instance_queries <- t.instance_queries + 1
let record_enumeration t = t.enumerations <- t.enumerations + 1

let candidates_generated t n =
  t.candidates_generated <- t.candidates_generated + n;
  if n > t.pool_peak then t.pool_peak <- n

let candidate_evaluated t = t.candidates_evaluated <- t.candidates_evaluated + 1
let llm_round t = t.llm_rounds <- t.llm_rounds + 1
let proposal_build t = t.proposal_builds <- t.proposal_builds + 1
let deadline_check t = t.deadline_checks <- t.deadline_checks + 1

let record_certified t ok =
  if ok then t.certified_unsat <- t.certified_unsat + 1
  else t.certificate_failures <- t.certificate_failures + 1

let add_phase_ms t phase ms =
  let prev = Option.value ~default:0. (Hashtbl.find_opt t.phase_ms phase) in
  Hashtbl.replace t.phase_ms phase (prev +. ms)

let solver_queries t = t.sat_verdicts + t.unsat_verdicts + t.unknown_verdicts

let phases t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.phase_ms []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

module Scheduler = struct
  type t = {
    mutable chunks_dispatched : int;
    mutable chunks_completed : int;
    mutable rows_completed : int;
    mutable retries : int;
    mutable workers_spawned : int;
    mutable workers_lost : int;
    mutable heartbeat_kills : int;
  }

  let create () =
    {
      chunks_dispatched = 0;
      chunks_completed = 0;
      rows_completed = 0;
      retries = 0;
      workers_spawned = 0;
      workers_lost = 0;
      heartbeat_kills = 0;
    }

  let to_json ~jobs t =
    Specrepair_json.Obj
      (List.map
         (fun (k, n) -> (k, Specrepair_json.int n))
         [
           ("jobs", jobs);
           ("chunks_dispatched", t.chunks_dispatched);
           ("chunks_completed", t.chunks_completed);
           ("rows_completed", t.rows_completed);
           ("retries", t.retries);
           ("workers_spawned", t.workers_spawned);
           ("workers_lost", t.workers_lost);
           ("heartbeat_kills", t.heartbeat_kills);
         ])

  let pp ppf t =
    Format.fprintf ppf
      "@[<v>chunks: %d dispatched, %d completed (%d rows)@,\
       retries: %d, workers: %d spawned / %d lost (%d heartbeat kills)@]"
      t.chunks_dispatched t.chunks_completed t.rows_completed t.retries
      t.workers_spawned t.workers_lost t.heartbeat_kills
end

let pp ppf t =
  Format.fprintf ppf
    "@[<v>solver queries: %d (sat %d / unsat %d / unknown %d)@,\
     instance queries: %d, enumerations: %d@,\
     candidates: %d generated, %d evaluated (pool peak %d)@,\
     llm rounds: %d (%d proposal builds), deadline checks: %d@,\
     certificates: %d accepted, %d failed"
    (solver_queries t) t.sat_verdicts t.unsat_verdicts t.unknown_verdicts
    t.instance_queries t.enumerations t.candidates_generated
    t.candidates_evaluated t.pool_peak t.llm_rounds t.proposal_builds
    t.deadline_checks
    t.certified_unsat t.certificate_failures;
  List.iter
    (fun (phase, ms) -> Format.fprintf ppf "@,phase %s: %.3f ms" phase ms)
    (phases t);
  Format.fprintf ppf "@]"
