module Alloy = Specrepair_alloy
module Solver = Specrepair_solver
module Ast = Alloy.Ast
module Common = Specrepair_repair.Common
module Session = Specrepair_repair.Session
module Telemetry = Specrepair_engine.Telemetry
module Faultloc = Specrepair_faultloc.Faultloc
module Location = Specrepair_mutation.Location

type feedback = No_feedback | Generic | Auto

let feedback_to_string = function
  | No_feedback -> "None"
  | Generic -> "Generic"
  | Auto -> "Auto"

let all_feedbacks = [ No_feedback; Generic; Auto ]

let tool_name fb = "Multi-Round_" ^ feedback_to_string fb

(* Templated analyzer report: which checks have counterexamples, which runs
   are unsatisfiable. *)
let generic_report ~session (env : Alloy.Typecheck.env) failing =
  let lines =
    List.map
      (fun (_, name, cex) ->
        Format.asprintf
          "check %s fails; counterexample:@.%a" name Alloy.Instance.pp cex)
      failing
  in
  let runs =
    List.filter_map
      (fun (c : Ast.command) ->
        match c.cmd_kind with
        | Ast.Run_pred p -> (
            match Common.command_verdict session env c with
            | `Unsat -> Some (Printf.sprintf "run %s is unsatisfiable" p)
            | `Sat | `Unknown -> None)
        | _ -> None)
      env.spec.commands
  in
  String.concat "\n" (lines @ runs)

(* Vocabulary-based steering for the Generic setting: constraints that share
   relations with a failing assertion get boosted. *)
let generic_guidance (task : Task.t) failing guidance =
  let failing_rels =
    List.concat_map
      (fun (_, name, _) ->
        match Ast.find_assert task.faulty name with
        | Some a -> Model.rels_of_fmla [] a.assert_body
        | None -> [])
      failing
    |> List.sort_uniq String.compare
  in
  let boosts =
    List.filter_map
      (fun site ->
        match Location.body task.faulty site with
        | body ->
            let site_rels =
              List.sort_uniq String.compare (Model.rels_of_fmla [] body)
            in
            if List.exists (fun r -> List.mem r failing_rels) site_rels then
              Some (site, 3.0)
            else None
        | exception Not_found -> None)
      (Location.sites task.faulty)
  in
  { guidance with Model.site_boost = boosts }

(* The Prompt Agent of the Auto setting: runs FLACK-style reasoning over
   the analyzer's counterexamples and witnesses, then tells the Repair
   Agent where to look — a sharp boost, but it can lock onto the wrong
   place when localization is ambiguous. *)
let auto_guidance ~session (env : Alloy.Typecheck.env) (task : Task.t) failing
    rng guidance =
  let ranked =
    match failing with
    | (c, name, _) :: _ -> (
        match Ast.find_assert env.spec name with
        | Some _ ->
            let scope = Solver.Bounds.scope_of_command c in
            let cexs =
              Common.counterexamples_for ~limit:3 session env name scope
            in
            let wits = Common.witnesses_for ~limit:3 session env name scope in
            Faultloc.rank_by_instances env
              ~goal_of:(Faultloc.goal_of_assert name)
              ~counterexamples:cexs ~witnesses:wits ()
        | None -> [])
    | [] -> []
  in
  let top = List.filteri (fun i _ -> i < 3) ranked in
  match top with
  | [] -> generic_guidance task failing guidance
  | _ ->
      (* the agent's advice is sharp but fallible: with some probability it
         locks onto an arbitrary constraint instead of a ranked one, and
         the strong boost then actively misleads the Repair Agent *)
      let chosen =
        if Rng.float rng < 0.45 then begin
          let sites = Location.sites task.faulty in
          match sites with
          | [] -> None
          | _ -> Some (List.nth sites (Rng.int rng (List.length sites)))
        end
        else
          Rng.choose_weighted rng
            (List.map (fun (l : Faultloc.location) -> (l.site, 0.5 +. l.score)) top)
      in
      let boosts =
        match chosen with Some site -> [ (site, 8.0) ] | None -> []
      in
      { guidance with Model.site_boost = boosts }

(* The Repair Agent's "mental check": before answering, the model reasons
   about its candidate against the commands visible in the prompt — a
   bounded self-verification at a reduced scope (small concrete scenarios a
   capable model can think through).  Only the analyzer's full-scope run,
   outside the model, is authoritative. *)
let mental_scope = 2

let mentally_consistent ~session (env' : Alloy.Typecheck.env) =
  List.for_all
    (fun (c : Ast.command) ->
      let reduced = { c with Ast.cmd_scope = min mental_scope c.Ast.cmd_scope } in
      match Common.command_behaves ~max_conflicts:5_000 session env' reduced with
      | v -> v
      | exception _ -> false)
    env'.spec.commands

(* Best-of-k internal sampling with the mental check; falls back to the
   first proposal when none self-verifies.  [mental_check:false] (ablation)
   returns the first proposal unfiltered.  The k proposals come from one
   proposal distribution, built once per loop over the space the session's
   store holds for the round's base. *)
let internal_proposal ~session ~mental_check profile rng guidance
    (task : Task.t) =
  let k = if mental_check then profile.Model.self_check_samples else 1 in
  Telemetry.(incr (Session.telemetry session) proposal_builds);
  let draw =
    Model.proposer ~spaces:(Session.spaces session) profile ~hints:[] guidance
      task
  in
  let rec go n first =
    if n = 0 then first
    else
      match draw rng with
      | None -> go (n - 1) first
      | Some candidate -> (
          if not mental_check then Some candidate
          else
            let first = match first with None -> Some candidate | s -> s in
            match Common.env_of_spec candidate with
            | Some env' when mentally_consistent ~session env' -> Some candidate
            | _ -> go (n - 1) first)
  in
  go k None

let repair ?session ?(profile = Model.gpt4) ?(rounds = 6) ?(hill_climb = true)
    ?(mental_check = true)
    ?(trace = fun ~round:_ ~prompt:_ ~response:_ -> ()) (task : Task.t) fb =
  (* one incremental session for the dialogue: candidate specs recur across
     rounds (the model revisits its own proposals), and the mental check's
     reduced-scope commands get their own shared context per scope.
     LLM-written candidates may redeclare signatures; the oracle detects
     that and falls back to fresh solves for those, transparently. *)
  let session =
    match session with Some s -> s | None -> Session.for_spec task.faulty
  in
  let telemetry = Session.telemetry session in
  let max_conflicts = (Session.budget session).Session.max_conflicts in
  let rng =
    Rng.of_context ~seed:(Session.seed session)
      [ task.spec_id; "multi-round"; feedback_to_string fb ]
  in
  let total_commands = List.length task.faulty.Ast.commands in
  (* The dialogue hill-climbs: each round's proposal edits the best spec so
     far (the conversation carries the current working version), so
     compound faults can be repaired one edit at a time. *)
  let rec loop round guidance base base_behaved feedback_text =
    if round > rounds then
      Common.result ~tool:(tool_name fb) ~repaired:false
        ~timed_out:(Session.timed_out session) base ~candidates:rounds
        ~iterations:rounds
    else if Session.expired session then
      (* cooperative deadline: abort between rounds with the best base *)
      Common.result ~tool:(tool_name fb) ~repaired:false ~timed_out:true base
        ~candidates:(round - 1) ~iterations:(round - 1)
    else begin
      Telemetry.(incr telemetry llm_rounds);
      let task_r = { task with Task.faulty = base } in
      let prompt =
        { Prompt.task = task_r; hints = []; round; feedback = feedback_text }
      in
      let proposal =
        Session.time session "llm" (fun () ->
            internal_proposal ~session ~mental_check profile rng guidance
              task_r)
      in
      let response = Model.render_response profile ~rng proposal in
      trace ~round ~prompt ~response;
      match Extract.spec_of_response response with
      | None ->
          (* unparseable round: the driver reports it and retries *)
          loop (round + 1)
            { guidance with Model.exploration = guidance.Model.exploration +. 0.1 }
            base base_behaved
            (Some "Your previous answer did not contain a complete, parseable specification.")
      | Some candidate -> (
          Telemetry.(incr telemetry candidates_evaluated);
          match Common.env_of_spec candidate with
          | None ->
              loop (round + 1) guidance base base_behaved
                (Some "Your previous specification did not type-check.")
          | Some env' ->
              let behaved =
                Common.behaving_commands ~max_conflicts session env'
              in
              if behaved = total_commands && total_commands > 0 then
                Common.result ~tool:(tool_name fb) ~repaired:true candidate
                  ~candidates:round ~iterations:round
              else begin
                let failing =
                  Common.failing_checks ~max_conflicts session env'
                in
                let blocked = candidate :: guidance.Model.blocked in
                let base, base_behaved =
                  if hill_climb && behaved > base_behaved then
                    (candidate, behaved)
                  else (base, base_behaved)
                in
                let guidance', text =
                  match fb with
                  | No_feedback ->
                      ( {
                          guidance with
                          Model.blocked;
                          exploration = guidance.Model.exploration +. 0.05;
                        },
                        Some "The specification is still not correct." )
                  | Generic ->
                      ( {
                          (generic_guidance task failing guidance) with
                          Model.blocked;
                        },
                        Some (generic_report ~session env' failing) )
                  | Auto ->
                      ( {
                          (auto_guidance ~session env' task failing rng
                             guidance)
                          with
                          Model.blocked;
                        },
                        Some
                          "The Prompt Agent localized the fault; focus on the \
                           indicated constraint." )
                in
                loop (round + 1) guidance' base base_behaved text
              end)
    end
  in
  let initial_behaved =
    match Common.env_of_spec task.faulty with
    | Some env -> Common.behaving_commands ~max_conflicts session env
    | None -> 0
  in
  loop 1 Model.no_guidance task.faulty initial_behaved None
