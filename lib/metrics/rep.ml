module Alloy = Specrepair_alloy
module Solver = Specrepair_solver
module Ast = Alloy.Ast

let command_applicable (spec : Ast.spec) (c : Ast.command) =
  match c.cmd_kind with
  | Ast.Run_pred name -> Ast.find_pred spec name <> None
  | Ast.Check name -> Ast.find_assert spec name <> None
  | Ast.Run_fmla _ -> true

let rep_with ~verdict ~ground_truth ~candidate =
  match
    ( Alloy.Typecheck.check_result ground_truth,
      Alloy.Typecheck.check_result candidate )
  with
  | Ok gt_env, Ok cand_env ->
      ground_truth.commands <> []
      && List.for_all
           (fun c ->
             command_applicable candidate c
             &&
             let o1 = verdict gt_env c in
             let o2 = verdict cand_env c in
             o1 <> `Unknown && o1 = o2)
           ground_truth.commands
  | _ -> false

let rep ?max_conflicts ~ground_truth ~candidate () =
  rep_with
    ~verdict:(fun env c ->
      Solver.Analyzer.outcome_verdict
        (Solver.Analyzer.run_command ?max_conflicts env c))
    ~ground_truth ~candidate

let rep_score ?max_conflicts ~ground_truth ~candidate () =
  if rep ?max_conflicts ~ground_truth ~candidate () then 1 else 0

let conj_facts (spec : Ast.spec) =
  List.fold_left
    (fun acc (f : Ast.fact_decl) -> Ast.And (acc, f.fact_body))
    Ast.True spec.facts

let same_declarations (a : Ast.spec) (b : Ast.spec) = a.sigs = b.sigs

let equivalent_constraints ?max_conflicts ~scope ~ground_truth ~candidate () =
  if not (same_declarations ground_truth candidate) then None
  else
    match Alloy.Typecheck.check_result { ground_truth with facts = [] } with
    | Error _ -> None
    | Ok env -> (
        let difference =
          Ast.Not (Ast.Iff (conj_facts ground_truth, conj_facts candidate))
        in
        match Solver.Analyzer.solve_fmla ?max_conflicts env scope difference with
        | Solver.Analyzer.Unsat -> Some true
        | Solver.Analyzer.Sat _ -> Some false
        | Solver.Analyzer.Unknown -> None
        | exception Solver.Translate.Translate_error _ -> None)
