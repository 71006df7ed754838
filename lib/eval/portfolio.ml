module Alloy = Specrepair_alloy
module Repair = Specrepair_repair
module Session = Repair.Session
module Llm = Specrepair_llm
module Common = Repair.Common

type stage = Traditional_sufficed | Llm_finished | Unrepaired

let stage_to_string = function
  | Traditional_sufficed -> "traditional"
  | Llm_finished -> "llm"
  | Unrepaired -> "unrepaired"

(* The one place a default session comes from: both entry points (and
   every profile) share it, so a caller-provided session and the default
   agree — pinned by a regression test.  [for_spec] also covers the
   ill-typed-input case the old inline [Session.create env] could not. *)
let default_session session (task : Llm.Task.t) =
  match session with Some s -> s | None -> Session.for_spec task.faulty

let repair ?session ?(profile = Llm.Model.gpt4) (task : Llm.Task.t) =
  let session = default_session session task in
  match Alloy.Typecheck.check_result task.faulty with
  | Error _ ->
      ( Common.result ~tool:"Portfolio" ~repaired:false task.faulty
          ~candidates:0 ~iterations:0,
        Unrepaired )
  | Ok env ->
      (* one session spans both stages: everything ATR learned about the
         spec (translations, clauses, candidate verdicts) is already in the
         oracle when the LLM loop starts from its output, the telemetry
         aggregates across stages, and a deadline cuts the whole pipeline *)
      let atr = Repair.Atr.repair ~session env in
      if atr.repaired then
        ( { atr with Common.tool = "Portfolio" }, Traditional_sufficed )
      else begin
        (* hand the traditional engine's best effort to the LLM loop *)
        let task' = { task with Llm.Task.faulty = atr.final_spec } in
        let mr = Llm.Multi_round.repair ~session ~profile task' Llm.Multi_round.Auto in
        let combined =
          {
            mr with
            Common.tool = "Portfolio";
            candidates_tried = atr.candidates_tried + mr.candidates_tried;
          }
        in
        (combined, if mr.repaired then Llm_finished else Unrepaired)
      end

(* {2 Single-spec repair tools} *)

let tools =
  [
    ( "beafix",
      fun ~session ~profile:_ env _task -> Repair.Beafix.repair ~session env );
    ( "atr",
      fun ~session ~profile:_ env _task -> Repair.Atr.repair ~session env );
    ( "multi-round",
      fun ~session ~profile _env task ->
        Llm.Multi_round.repair ~session ~profile task Llm.Multi_round.Generic );
    ( "portfolio",
      fun ~session ~profile _env task -> fst (repair ~session ~profile task) );
  ]

(* {2 Learned ordering} *)

type plan = {
  defect_class : string;
  ordering : (Technique.t * float) list;
  learned : bool;  (** false = cold start, static pipeline ran *)
}

(* Techniques runnable from a bare task: ARepair and ICEBAR need the
   domain's AUnit suite, which a task does not carry, so the learned plan
   draws from the other two traditional engines and the whole panel. *)
let plan_pool =
  [ Technique.ATR; Technique.BeAFix ]
  @ List.concat_map Technique.llm_for Llm.Model.panel

let plan ?stats (task : Llm.Task.t) =
  let defect_class = Learned.defect_class_of_task task in
  match stats with
  | None -> { defect_class; ordering = []; learned = false }
  | Some stats ->
      let ordering = Learned.rank stats ~defect_class plan_pool in
      { defect_class; ordering; learned = ordering <> [] }

type learned_outcome = {
  result : Common.result;
  stage : stage;
  chosen_plan : plan;
  attempted : string list;  (** technique labels actually run, in order *)
}

let run_technique ~session ~env (task : Llm.Task.t) = function
  | Technique.ATR -> Some (Repair.Atr.repair ~session env)
  | Technique.BeAFix -> Some (Repair.Beafix.repair ~session env)
  | Technique.Single (s, p) ->
      Some (Llm.Single_round.repair ~session ~profile:p task s)
  | Technique.Multi (f, p) ->
      Some (Llm.Multi_round.repair ~session ~profile:p task f)
  | Technique.ARepair | Technique.ICEBAR -> None

let repair_learned ?session ?(profile = Llm.Model.gpt4) ?stats ?(top_k = 3)
    (task : Llm.Task.t) =
  let session = default_session session task in
  let chosen_plan = plan ?stats task in
  match Alloy.Typecheck.check_result task.faulty with
  | Error _ ->
      let result, stage = repair ~session ~profile task in
      { result; stage; chosen_plan = { chosen_plan with learned = false };
        attempted = [] }
  | Ok env ->
      if not chosen_plan.learned then begin
        (* cold start: no statistics for this defect class — the static
           two-stage pipeline runs, bit-identically to {!repair} *)
        let result, stage = repair ~session ~profile task in
        { result; stage; chosen_plan; attempted = [] }
      end
      else begin
        let take n xs = List.filteri (fun i _ -> i < n) xs in
        let racers = take top_k (List.map fst chosen_plan.ordering) in
        (* race the top of the ranking sequentially under the session's
           one deadline: first success wins, expiry aborts the plan and
           the remaining racers are never started *)
        let rec race attempted candidates iterations best = function
          | [] ->
              let result =
                match best with
                | Some (r : Common.result) ->
                    {
                      r with
                      Common.tool = "Portfolio-Learned";
                      candidates_tried = candidates;
                      iterations;
                      timed_out = Session.timed_out session;
                    }
                | None ->
                    Common.result ~tool:"Portfolio-Learned" ~repaired:false
                      ~timed_out:(Session.timed_out session) task.faulty
                      ~candidates ~iterations
              in
              { result; stage = Unrepaired; chosen_plan;
                attempted = List.rev attempted }
          | tech :: rest ->
              if Session.expired session then
                race attempted candidates iterations best []
              else begin
                match run_technique ~session ~env task tech with
                | None -> race attempted candidates iterations best rest
                | Some (r : Common.result) ->
                    let attempted = Technique.name tech :: attempted in
                    let candidates = candidates + r.candidates_tried in
                    let iterations = iterations + r.iterations in
                    if r.repaired then
                      let stage =
                        match tech with
                        | Technique.Single _ | Technique.Multi _ ->
                            Llm_finished
                        | _ -> Traditional_sufficed
                      in
                      let result =
                        {
                          r with
                          Common.tool = "Portfolio-Learned";
                          candidates_tried = candidates;
                          iterations;
                        }
                      in
                      { result; stage; chosen_plan;
                        attempted = List.rev attempted }
                    else
                      let best =
                        match best with Some _ -> best | None -> Some r
                      in
                      race attempted candidates iterations best rest
              end
        in
        race [] 0 0 None racers
      end
