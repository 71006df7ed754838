module Alloy = Specrepair_alloy
module Solver = Specrepair_solver
module Ast = Alloy.Ast
module Mutation = Specrepair_mutation
module Location = Mutation.Location
module Faultloc = Specrepair_faultloc.Faultloc
module Telemetry = Specrepair_engine.Telemetry

(* Template instantiation at a formula node, in two tiers: tier 1 holds the
   cheap semantic operator swaps, tier 2 the synthesized templates
   (strengthen with a conjunct, weaken with a disjunct, replace a
   constraint or subexpression).  The search runs tier 1 at every location
   before any tier 2, so one template-rich location cannot starve the
   rest. *)
let templates_at (env : Alloy.Typecheck.env) site path =
  let spec = env.spec in
  let node = Location.get (Location.body spec site) path in
  let vars = Location.vars_at env spec site path in
  let swaps =
    Mutation.Mutate.mutations_at env spec site path ~with_pool:false ()
    |> List.map (fun (m : Mutation.Mutate.t) -> m.replacement)
  in
  match node with
  | Location.F f ->
      let atoms = Mutation.Pool.atomic_fmlas env ~vars ~limit:60 () in
      let strengthen =
        List.map (fun t -> Location.F (Ast.And (f, t))) atoms
      in
      let weaken = List.map (fun t -> Location.F (Ast.Or (f, t))) atoms in
      let replace = List.map (fun t -> Location.F t) atoms in
      (swaps, strengthen @ weaken @ replace)
  | Location.E e ->
      let arity =
        match Alloy.Typecheck.expr_arity env vars e with
        | a -> Some a
        | exception Alloy.Typecheck.Type_error _ -> None
      in
      let replacements =
        match arity with
        | Some a ->
            Mutation.Pool.exprs env ~vars ~arity:a ~depth:2 ~limit:60 ()
            |> List.filter (fun e' -> e' <> e)
            |> List.map (fun e' -> Location.E e')
        | None -> []
      in
      (swaps, replacements)

(* One inner search round: repair the named failing assertion of [env0].
   A candidate must (a) invalidate every collected counterexample of that
   assertion, (b) preserve every collected satisfying instance (the
   PMaxSAT-flavoured consistency filter), and (c) make the assertion's
   check command pass per the analyzer. *)
let repair_assert ~session ~tried (env0 : Alloy.Typecheck.env)
    (cmd : Ast.command) name =
  let budget = Session.budget session in
  let telemetry = Session.telemetry session in
  let max_conflicts = budget.Session.max_conflicts in
  let scope = Solver.Bounds.scope_of_command cmd in
  let cexs = Common.counterexamples_for ~limit:4 session env0 name scope in
  let wits = Common.witnesses_for ~limit:4 session env0 name scope in
  (* every candidate is checked against the same instances and differs from
     [env0] at one site: their memos replay the rest *)
  let cex_memos = List.map Alloy.Eval.memo cexs in
  let wit_memos = List.map Alloy.Eval.memo wits in
  let consistent (env' : Alloy.Typecheck.env) =
    let body' =
      match Ast.find_assert env'.spec name with
      | Some a -> Some a.assert_body
      | None -> None
    in
    match body' with
    | None -> false
    | Some b ->
        List.for_all
          (fun cex ->
            match
              Alloy.Eval.facts_hold_memo env' cex
              && not (Alloy.Eval.fmla env' (Alloy.Eval.instance cex) [] b)
            with
            | admitted -> not admitted
            | exception Alloy.Eval.Eval_error _ -> false)
          cex_memos
        && List.for_all
             (fun wit ->
               match
                 Alloy.Eval.facts_hold_memo env' wit
                 && Alloy.Eval.fmla env' (Alloy.Eval.instance wit) [] b
               with
               | kept -> kept
               | exception Alloy.Eval.Eval_error _ -> false)
             wit_memos
  in
  let locations =
    Session.time session "faultloc" (fun () ->
        let ranked =
          Faultloc.rank_by_instances env0
            ~goal_of:(Faultloc.goal_of_assert name) ~counterexamples:cexs
            ~witnesses:wits ()
        in
        let ranked_locs =
          List.map (fun (l : Faultloc.location) -> (l.site, l.path)) ranked
        in
        let all =
          Faultloc.candidate_locations env0.spec
            ~sites:(Location.sites env0.spec)
        in
        let rest = List.filter (fun l -> not (List.mem l ranked_locs)) all in
        ranked_locs @ rest)
  in
  let top = List.filteri (fun i _ -> i < budget.Session.locations) locations in
  let candidate_stream =
    Session.time session "mutation" (fun () ->
        let tiers =
          List.map
            (fun (site, path) -> ((site, path), templates_at env0 site path))
            top
        in
        List.concat_map
          (fun (loc, (swaps, _)) -> List.map (fun r -> (loc, r)) swaps)
          tiers
        @ List.concat_map
            (fun (loc, (_, templates)) ->
              List.map (fun r -> (loc, r)) templates)
            tiers)
  in
  Telemetry.record_pool telemetry (List.length candidate_stream);
  let rec search = function
    | [] -> None
    | ((site, path), repl) :: rest ->
        if !tried >= budget.Session.max_candidates || Session.expired session
        then None
        else begin
          let body = Location.body env0.spec site in
          match Location.replace body path repl with
          | body' -> (
              let spec' = Location.with_body env0.spec site body' in
              if spec' = env0.spec then search rest
              else begin
                incr tried;
                Telemetry.(incr telemetry candidates_evaluated);
                match Common.env_of_spec spec' with
                | None -> search rest
                | Some env' ->
                    if
                      consistent env'
                      && Common.command_behaves ~max_conflicts session env' cmd
                    then Some spec'
                    else search rest
              end)
          | exception _ -> search rest
        end
  in
  search candidate_stream

let repair ?session (env0 : Alloy.Typecheck.env) =
  (* one incremental session for the whole invocation: the base translation,
     learned clauses, and candidate verdicts are shared across every
     template, location, and outer iteration *)
  let session =
    match session with Some s -> s | None -> Session.create env0
  in
  let budget = Session.budget session in
  let telemetry = Session.telemetry session in
  let max_conflicts = budget.Session.max_conflicts in
  let tried = ref 0 in
  (* Outer loop: repair failing assertions one at a time, re-running on the
     improved specification — how ATR handles specs violating several
     properties (and, here, compound faults). *)
  let rec outer (env : Alloy.Typecheck.env) iter =
    if Common.oracle_passes ~max_conflicts session env then
      Common.result ~tool:"ATR" ~repaired:true env.spec ~candidates:!tried
        ~iterations:iter
    else if
      iter >= 3
      || !tried >= budget.Session.max_candidates
      || Session.expired session
    then
      Common.result ~tool:"ATR" ~repaired:false
        ~timed_out:(Session.timed_out session) env.spec ~candidates:!tried
        ~iterations:iter
    else begin
      let failing = Common.failing_checks ~max_conflicts session env in
      (* Over-constraint faults leave every check green but make a run
         command unsatisfiable — no counterexamples to analyze.  ATR falls
         back to its template sweep verified directly against the full
         oracle. *)
      let repair_unsat_runs () =
        (* the sweep is a secondary path: half the candidate budget, the
           same location allowance as the template search *)
        let sweep_budget = budget.Session.max_candidates / 2 in
        let locations =
          Faultloc.candidate_locations env.spec
            ~sites:(Location.sites env.spec)
        in
        let top =
          List.filteri (fun i _ -> i < budget.Session.locations) locations
        in
        let rec sweep = function
          | [] -> None
          | (site, path) :: rest ->
              if !tried >= sweep_budget || Session.expired session then None
              else begin
                let swaps, _ = templates_at env site path in
                let rec try_swaps = function
                  | [] -> sweep rest
                  | repl :: more -> (
                      if !tried >= sweep_budget || Session.expired session then
                        None
                      else
                        match
                          Location.replace (Location.body env.spec site) path
                            repl
                        with
                        | body' -> (
                            let spec' = Location.with_body env.spec site body' in
                            incr tried;
                            Telemetry.(incr telemetry candidates_evaluated);
                            match Common.env_of_spec spec' with
                            | Some env'
                              when Common.oracle_passes ~max_conflicts session
                                     env' ->
                                Some spec'
                            | _ -> try_swaps more)
                        | exception _ -> try_swaps more)
                in
                try_swaps swaps
              end
        in
        sweep top
      in
      let rec try_asserts = function
        | [] -> None
        | (cmd, name, _) :: rest -> (
            match repair_assert ~session ~tried env cmd name with
            | Some spec' -> Some spec'
            | None -> try_asserts rest)
      in
      let repair_attempt =
        (* the sweep fallback applies only when there is no counterexample
           to analyze; assertion violations keep the template machinery *)
        if failing = [] then repair_unsat_runs () else try_asserts failing
      in
      match repair_attempt with
      | Some spec' -> (
          match Common.env_of_spec spec' with
          | Some env' -> outer env' (iter + 1)
          | None ->
              Common.result ~tool:"ATR" ~repaired:false
                ~timed_out:(Session.timed_out session) env.spec
                ~candidates:!tried ~iterations:iter)
      | None ->
          Common.result ~tool:"ATR" ~repaired:false
            ~timed_out:(Session.timed_out session) env.spec ~candidates:!tried
            ~iterations:iter
    end
  in
  outer env0 0
