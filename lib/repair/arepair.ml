module Alloy = Specrepair_alloy
module Aunit = Specrepair_aunit.Aunit
module Mutation = Specrepair_mutation
module Faultloc = Specrepair_faultloc.Faultloc
module Telemetry = Specrepair_engine.Telemetry

let score env tests = List.length (Aunit.run_suite env tests).passing

let repair ?session (env0 : Alloy.Typecheck.env) tests =
  let session =
    match session with Some s -> s | None -> Session.create env0
  in
  let budget = Session.budget session in
  let telemetry = Session.telemetry session in
  let n_tests = List.length tests in
  let tried = ref 0 in
  (* one greedy step: the candidate (from mutations at the most suspicious
     locations) that passes the most tests, if it improves *)
  let step (env : Alloy.Typecheck.env) current_score =
    let locations =
      Session.time session "faultloc" (fun () ->
          Faultloc.rank_by_tests env tests ())
    in
    let top = List.filteri (fun i _ -> i < budget.Session.locations) locations in
    let candidates =
      Session.time session "mutation" (fun () ->
          List.concat_map
            (fun (l : Faultloc.location) ->
              Mutation.Mutate.mutations_at env env.spec l.site l.path
                ~with_pool:budget.Session.use_pool ())
            top)
    in
    Telemetry.record_pool telemetry (List.length candidates);
    List.fold_left
      (fun best m ->
        if !tried >= budget.Session.max_candidates || Session.expired session
        then best
        else begin
          incr tried;
          Telemetry.(incr telemetry candidates_evaluated);
          match Common.env_of_spec (Mutation.Mutate.apply env.spec m) with
          | None -> best
          | Some env' ->
              let s = score env' tests in
              let best_score =
                match best with Some (_, bs) -> bs | None -> current_score
              in
              if s > best_score then Some (env', s) else best
        end)
      None candidates
  in
  let finish ~repaired (env : Alloy.Typecheck.env) depth =
    Common.result ~tool:"ARepair" ~repaired
      ~timed_out:(Session.timed_out session)
      env.Alloy.Typecheck.spec ~candidates:!tried ~iterations:depth
  in
  let rec loop env current_score depth =
    if current_score = n_tests then finish ~repaired:true env depth
    else if
      depth >= budget.Session.max_depth
      || !tried >= budget.Session.max_candidates
      || Session.expired session
    then finish ~repaired:false env depth
    else
      match step env current_score with
      | Some (env', s) -> loop env' s (depth + 1)
      | None -> finish ~repaired:false env depth
  in
  loop env0 (score env0 tests) 0
