module Alloy = Specrepair_alloy
module Ast = Alloy.Ast
module Common = Specrepair_repair.Common
module Session = Specrepair_repair.Session
module Telemetry = Specrepair_engine.Telemetry

let tool_name setting =
  "Single-Round_" ^ Prompt.single_setting_to_string setting

(* The Pass hint names the assertions the fix must satisfy, so the model
   anchors on them: it mentally tests candidates against those checks (at a
   small scope it can reason about) and returns the first that satisfies
   them.  The anchoring is double-edged — a candidate can make the named
   checks pass by over-constraining, silently breaking other commands. *)
let pass_anchored_proposal ~session profile rng (task : Task.t) hints draw =
  let named_checks_pass candidate =
    match Common.env_of_spec candidate with
    | None -> false
    | Some env' ->
        List.for_all
          (fun (c : Ast.command) ->
            match c.cmd_kind with
            | Ast.Check name when List.mem name task.Task.check_names -> (
                let reduced = { c with Ast.cmd_scope = min 2 c.Ast.cmd_scope } in
                match
                  Common.command_behaves ~max_conflicts:5_000 session env'
                    reduced
                with
                | v -> v
                | exception _ -> false)
            | _ -> true)
          env'.Alloy.Typecheck.spec.commands
  in
  let rec go n first =
    if n = 0 || Session.expired session then first
    else
      match draw rng with
      | None -> go (n - 1) first
      | Some candidate ->
          let first = match first with None -> Some candidate | s -> s in
          if named_checks_pass candidate then Some candidate
          else go (n - 1) first
  in
  let tries =
    (* the anchor is leaned on harder when it is the only hint *)
    if List.mem Prompt.Loc hints then 2 else 3
  in
  go (min tries profile.Model.self_check_samples) None

let repair ?session ?(profile = Model.gpt4) (task : Task.t) setting =
  let session =
    match session with Some s -> s | None -> Session.for_spec task.faulty
  in
  let telemetry = Session.telemetry session in
  if Session.expired session then
    Common.result ~tool:(tool_name setting) ~repaired:false ~timed_out:true
      task.faulty ~candidates:0 ~iterations:0
  else begin
    Telemetry.(incr telemetry llm_rounds);
    let rng =
      Rng.of_context ~seed:(Session.seed session)
        [ task.spec_id; "single-round"; Prompt.single_setting_to_string setting ]
    in
    let hints = Prompt.hints_of_setting setting in
    let response =
      Session.time session "llm" (fun () ->
          Telemetry.(incr telemetry proposal_builds);
          let draw =
            Model.proposer ~spaces:(Session.spaces session) profile ~hints
              Model.no_guidance task
          in
          let proposal =
            if List.mem Prompt.Pass hints then
              pass_anchored_proposal ~session profile rng task hints draw
            else draw rng
          in
          Model.render_response profile ~rng proposal)
    in
    Telemetry.(incr telemetry candidates_evaluated);
    match Extract.spec_of_response response with
    | Some spec ->
        Common.result ~tool:(tool_name setting) ~repaired:true spec
          ~candidates:1 ~iterations:1
    | None ->
        Common.result ~tool:(tool_name setting) ~repaired:false
          ~timed_out:(Session.timed_out session) task.faulty ~candidates:1
          ~iterations:1
  end
