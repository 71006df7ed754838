open Specrepair_sat
module Alloy = Specrepair_alloy
module Ast = Alloy.Ast

type outcome = Sat of Alloy.Instance.t | Unsat | Unknown
type verdict = [ `Sat | `Unsat | `Unknown ]

let outcome_verdict : outcome -> verdict = function
  | Sat _ -> `Sat
  | Unsat -> `Unsat
  | Unknown -> `Unknown

let default_scope = { Bounds.default = 3; overrides = [] }

(* A solver loaded with the bounds, the spec formula and the goal, ready
   to solve.  The proof sink must be installed before [Bounds.create]:
   bounds assert symmetry-breaking and multiplicity clauses at
   construction time, and a checker that never saw them cannot validate
   anything derived from them. *)
let load_goal ?proof ?facts env scope goal_of_bounds =
  let solver = Solver.create () in
  (match proof with None -> () | Some _ -> Solver.set_proof solver proof);
  let bounds = Bounds.create solver env scope in
  let ts = Tseitin.create solver in
  Tseitin.assert_formula ts
    (Translate.spec_fmla ?facts:(Option.map (fun f -> f bounds) facts) bounds);
  Tseitin.assert_formula ts (goal_of_bounds bounds);
  (solver, bounds)

let solve_goal ?proof ?spent ?max_conflicts env scope goal_of_bounds =
  let solver, bounds = load_goal ?proof env scope goal_of_bounds in
  let result = Solver.solve ?max_conflicts solver in
  Option.iter (fun f -> f solver) spent;
  match result with
  | Solver.Sat -> Sat (Bounds.extract bounds (Solver.value solver))
  | Solver.Unsat -> Unsat
  | Solver.Unknown -> Unknown

let fmla_goal f bounds = Translate.fmla bounds [] f

let load ?facts ?goal env scope f =
  load_goal ?facts env scope (Option.value goal ~default:(fmla_goal f))

let primary_vars bounds =
  Hashtbl.fold
    (fun _ cells acc -> List.map snd cells @ acc)
    bounds.Bounds.rel_vars []

let pred_goal env name =
  match Ast.find_pred env.Alloy.Typecheck.spec name with
  | None -> invalid_arg (Printf.sprintf "Analyzer.run_pred: unknown predicate %s" name)
  | Some p -> fun bounds -> Translate.pred_goal bounds p

let assert_goal env name =
  match Ast.find_assert env.Alloy.Typecheck.spec name with
  | None ->
      invalid_arg (Printf.sprintf "Analyzer.check_assert: unknown assertion %s" name)
  | Some a -> fmla_goal (Ast.Not a.assert_body)

let solve_fmla ?proof ?max_conflicts env scope f =
  solve_goal ?proof ?max_conflicts env scope (fmla_goal f)

let run_pred ?proof ?max_conflicts env scope name =
  solve_goal ?proof ?max_conflicts env scope (pred_goal env name)

let check_assert ?proof ?max_conflicts env scope name =
  solve_goal ?proof ?max_conflicts env scope (assert_goal env name)

let run_command ?proof ?spent ?max_conflicts env (c : Ast.command) =
  solve_goal ?proof ?spent ?max_conflicts env
    (Bounds.scope_of_command c)
    (match c.cmd_kind with
    | Ast.Run_pred name -> pred_goal env name
    | Ast.Run_fmla f -> fmla_goal f
    | Ast.Check name -> assert_goal env name)

let enumerate ?(limit = 10) ?spent ?max_conflicts env scope f =
  let solver, bounds = load env scope f in
  let all_primary_vars = primary_vars bounds in
  let rec loop acc n =
    if n >= limit then List.rev acc
    else
      match Solver.solve ?max_conflicts solver with
      | Solver.Sat ->
          let inst = Bounds.extract bounds (Solver.value solver) in
          let blocking =
            List.map
              (fun v -> Lit.make v (not (Solver.value solver v)))
              all_primary_vars
          in
          Solver.add_clause solver blocking;
          loop (inst :: acc) (n + 1)
      | Solver.Unsat | Solver.Unknown -> List.rev acc
  in
  let insts = loop [] 0 in
  Option.iter (fun f -> f solver) spent;
  insts
