module Alloy = Specrepair_alloy
module Solver = Specrepair_solver
module Space = Specrepair_mutation.Space
module Counters = Specrepair_json.Counters

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
  phase_ms : (string, float) Hashtbl.t;  (* shared with derived sessions *)
  spaces : Space.store;  (* shared with derived sessions *)
  bases : Counters.t list;  (* [reported] at creation, for deltas *)
  expiry : bool ref;  (* latched; shared with derived sessions *)
  deferred : (unit -> unit) list ref;
      (* newest first, run by [settle]; shared with derived sessions *)
}

(* The counters a telemetry line reports as the session's delta, in line
   order, the oracle's first: the oracle and the store may outlive the
   session, and the evaluator's totals span the process. *)
let reported oracle spaces =
  [
    Solver.Oracle.stats oracle;
    Solver.Oracle.sat_stats oracle;
    Solver.Oracle.fresh_sat_stats oracle;
    Alloy.Eval.counters ();
    Space.stats spaces;
  ]

let now_ns () = Monotonic_clock.now ()

let create ?oracle ?(certify = false) ?(budget = default_budget) ?(seed = 42)
    ?deadline_ms ?(spaces = Space.create_store ()) env =
  let oracle =
    match oracle with
    | Some o -> o
    | None -> Solver.Oracle.create ~certify env
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
    telemetry = Telemetry.create ();
    phase_ms = Hashtbl.create 8;
    spaces;
    bases = reported oracle spaces;
    expiry = ref false;
    deferred = ref [];
  }

let for_spec ?oracle ?certify ?budget ?seed ?deadline_ms spec =
  let env =
    match Alloy.Typecheck.check_result spec with
    | Ok env -> env
    | Error _ ->
        (* ill-typed input (an LLM task whose faulty spec does not check):
           anchor on the empty spec; every candidate is sig-incompatible and
           the oracle serves it by fresh-solve fallback, transparently *)
        Alloy.Typecheck.check Alloy.Ast.empty_spec
  in
  create ?oracle ?certify ?budget ?seed ?deadline_ms env

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
      Telemetry.incr t.telemetry Telemetry.deadline_checks;
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

let defer t f = t.deferred := f :: !(t.deferred)

let settle t =
  let fs = List.rev !(t.deferred) in
  t.deferred := [];
  List.iter (fun f -> f ()) fs

(* Settled first, so that the work deferred to a stop is inside the
   elapsed time, as its phase timers are. *)
let stop_clock t =
  settle t;
  if !(t.stopped_ms) = None then t.stopped_ms := Some (elapsed_ms t)

let time t phase f =
  let t0 = now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let ms = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6 in
      Hashtbl.replace t.phase_ms phase
        (ms +. Option.value ~default:0. (Hashtbl.find_opt t.phase_ms phase)))
    f

let phases t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.phase_ms []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let command_verdict ?max_conflicts t env cmd =
  let v = Solver.Oracle.command_verdict ?max_conflicts t.oracle env cmd in
  Telemetry.record_verdict t.telemetry v;
  v

let run_command ?max_conflicts t env cmd =
  Telemetry.incr t.telemetry Telemetry.instance_queries;
  Solver.Oracle.run_command ?max_conflicts t.oracle env cmd

let enumerate ?limit ?max_conflicts t env scope f =
  Telemetry.incr t.telemetry Telemetry.enumerations;
  Solver.Oracle.enumerate ?limit ?max_conflicts t.oracle env scope f

let deltas t =
  List.map2
    (fun base now -> Counters.since ~base now)
    t.bases
    (reported t.oracle t.spaces)

(* {2 JSON serialization} *)

let telemetry_json ?(extra = []) t =
  let module Json = Specrepair_json in
  let ms f = Json.Fixed (3, f) in
  settle t;
  let deltas = deltas t in
  let oracle = List.hd deltas in
  let certificates key = Json.int (Counters.get oracle key) in
  Json.to_string
    (Json.Obj
       (List.map (fun (k, v) -> (k, Json.Str v)) extra
       @ [
           ("elapsed_ms", ms (elapsed_ms t));
           ("timed_out", Json.Bool (timed_out t));
           ("solver_queries", Json.int (Telemetry.solver_queries t.telemetry));
         ]
       @ Counters.fields t.telemetry
       @ [
           ("certified_unsat", certificates Solver.Oracle.certified);
           ( "certificate_failures",
             certificates Solver.Oracle.certificate_failures );
         ]
       @ List.map (fun d -> (Counters.name d, Counters.to_json d)) deltas
       @ [
           ( "phases",
             Json.Obj (List.map (fun (phase, v) -> (phase, ms v)) (phases t)) );
         ]))
