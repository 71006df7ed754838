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

(* The proof sink must be installed before [Bounds.create]: bounds assert
   symmetry-breaking and multiplicity clauses at construction time, and a
   checker that never saw them cannot validate anything derived from them. *)
let setup ?proof env scope =
  let solver = Solver.create () in
  (match proof with None -> () | Some _ -> Solver.set_proof solver proof);
  let bounds = Bounds.create solver env scope in
  let ts = Tseitin.create solver in
  (solver, bounds, ts)

let solve_goal ?proof ?(simplify = false) ?(portfolio = 1) ?(certify = false)
    ?stats ?max_conflicts env scope goal_of_bounds =
  if (not simplify) && portfolio <= 1 then begin
    let solver, bounds, ts = setup ?proof env scope in
    Tseitin.assert_formula ts (Translate.spec_fmla bounds);
    Tseitin.assert_formula ts (goal_of_bounds bounds);
    match Solver.solve ?max_conflicts solver with
    | Solver.Sat -> Sat (Bounds.extract bounds (Solver.value solver))
    | Solver.Unsat -> Unsat
    | Solver.Unknown -> Unknown
  end
  else begin
    (* Simplified or raced solving cannot run inside the loading solver:
       the CNF is captured off the proof stream's [Input] events (the
       loading solver never solves, so it emits nothing else) and handed
       to {!Simplify.solve} / {!Portfolio.solve}, which stream their
       derivation steps into the caller's sink over the same premises. *)
    let captured = ref [] in
    let tee e =
      (match e with Proof.Input c -> captured := c :: !captured | _ -> ());
      match proof with Some sink -> sink e | None -> ()
    in
    let solver, bounds, ts = setup ~proof:tee env scope in
    Tseitin.assert_formula ts (Translate.spec_fmla bounds);
    Tseitin.assert_formula ts (goal_of_bounds bounds);
    let cnf =
      {
        Dimacs.num_vars = Solver.n_vars solver;
        clauses = List.rev_map Array.to_list !captured;
      }
    in
    let outcome result model =
      match (result, model) with
      | Solver.Sat, Some m ->
          Sat
            (Bounds.extract bounds (fun v -> v < Array.length m && m.(v)))
      | Solver.Sat, None | Solver.Unknown, _ -> Unknown
      | Solver.Unsat, _ -> Unsat
    in
    if portfolio > 1 then begin
      let out =
        Portfolio.solve ~jobs:portfolio ~simplify ~certify ?proof
          ?max_conflicts cnf
      in
      outcome out.Portfolio.result out.Portfolio.model
    end
    else begin
      let r = Simplify.solve ?proof ?max_conflicts cnf in
      (match stats with Some f -> f r | None -> ());
      outcome r.Simplify.result r.Simplify.model
    end
  end

let solve_fmla ?proof ?simplify ?portfolio ?certify ?stats ?max_conflicts env
    scope f =
  solve_goal ?proof ?simplify ?portfolio ?certify ?stats ?max_conflicts env
    scope (fun bounds -> Translate.fmla bounds [] f)

let run_pred ?proof ?simplify ?portfolio ?certify ?stats ?max_conflicts env
    scope name =
  match Ast.find_pred env.Alloy.Typecheck.spec name with
  | None -> invalid_arg (Printf.sprintf "Analyzer.run_pred: unknown predicate %s" name)
  | Some p ->
      solve_goal ?proof ?simplify ?portfolio ?certify ?stats ?max_conflicts env
        scope (fun bounds -> Translate.pred_goal bounds p)

let check_assert ?proof ?simplify ?portfolio ?certify ?stats ?max_conflicts env
    scope name =
  match Ast.find_assert env.Alloy.Typecheck.spec name with
  | None ->
      invalid_arg (Printf.sprintf "Analyzer.check_assert: unknown assertion %s" name)
  | Some a ->
      solve_fmla ?proof ?simplify ?portfolio ?certify ?stats ?max_conflicts env
        scope (Ast.Not a.assert_body)

let run_command ?proof ?simplify ?portfolio ?certify ?stats ?max_conflicts env
    (c : Ast.command) =
  let scope = Bounds.scope_of_command c in
  match c.cmd_kind with
  | Ast.Run_pred name ->
      run_pred ?proof ?simplify ?portfolio ?certify ?stats ?max_conflicts env
        scope name
  | Ast.Run_fmla f ->
      solve_fmla ?proof ?simplify ?portfolio ?certify ?stats ?max_conflicts env
        scope f
  | Ast.Check name ->
      check_assert ?proof ?simplify ?portfolio ?certify ?stats ?max_conflicts
        env scope name

let enumerate ?(limit = 10) ?max_conflicts env scope f =
  let solver, bounds, ts = setup env scope in
  Tseitin.assert_formula ts (Translate.spec_fmla bounds);
  Tseitin.assert_formula ts (Translate.fmla bounds [] f);
  let all_primary_vars =
    Hashtbl.fold
      (fun _ cells acc -> List.map snd cells @ acc)
      bounds.Bounds.rel_vars []
  in
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
  loop [] 0
