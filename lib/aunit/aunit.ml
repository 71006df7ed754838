module Alloy = Specrepair_alloy
module Solver = Specrepair_solver
module Ast = Alloy.Ast

type target = Facts | Pred of string | Fmla of Alloy.Ast.fmla

type test = {
  test_name : string;
  valuation : Alloy.Instance.t;
  target : target;
  expect : bool;
  memo : Alloy.Eval.memo;
}

let make ~name ~target ~expect valuation =
  {
    test_name = name;
    valuation;
    target;
    expect;
    memo = Alloy.Eval.memo valuation;
  }

type verdict = { passing : test list; failing : test list }

let eval_target env t =
  let valuation = t.valuation in
  match t.target with
  | Facts -> Alloy.Eval.facts_hold_memo env t.memo
  | Pred name -> (
      match Ast.find_pred env.Alloy.Typecheck.spec name with
      | Some p -> Alloy.Eval.pred_sat env valuation p
      | None -> raise (Alloy.Eval.Eval_error ("unknown predicate " ^ name)))
  | Fmla f -> Alloy.Eval.fmla env valuation [] f

let run_test env t =
  match eval_target env t with
  | verdict -> verdict = t.expect
  | exception Alloy.Eval.Eval_error _ -> false

let run_suite env tests =
  let passing, failing = List.partition (run_test env) tests in
  { passing; failing }

let all_pass env tests = List.for_all (run_test env) tests

let generate ?session ?(per_kind = 4) (env : Alloy.Typecheck.env) ~scope =
  (* the session oracle memoizes enumeration on the spec digest, so
     regenerating a suite for the same ground truth (every fault of a domain
     shares it) is a cache hit; answers are identical either way *)
  let enumerate ~limit env scope f =
    match session with
    | Some s -> Specrepair_engine.Session.enumerate ~limit s env scope f
    | None -> Solver.Analyzer.enumerate ~limit env scope f
  in
  let name_counter = ref 0 in
  let fresh prefix =
    incr name_counter;
    Printf.sprintf "%s_%d" prefix !name_counter
  in
  let positives =
    enumerate ~limit:per_kind env scope Ast.True
    |> List.map (fun inst ->
           make ~name:(fresh "facts_pos") ~target:Facts ~expect:true inst)
  in
  (* negative tests: valuations of the bare structure (implicit constraints
     only) that violate some explicit fact.  We search with the facts
     replaced by their negation, which requires a spec without facts. *)
  let negatives =
    match env.spec.facts with
    | [] -> []
    | facts ->
        let stripped = { env.spec with facts = [] } in
        let env' = Alloy.Typecheck.check stripped in
        let not_facts =
          Ast.Not
            (List.fold_left
               (fun acc f -> Ast.And (acc, f.Ast.fact_body))
               Ast.True facts)
        in
        enumerate ~limit:per_kind env' scope not_facts
        |> List.map (fun inst ->
               make ~name:(fresh "facts_neg") ~target:Facts ~expect:false inst)
  in
  let pred_tests =
    List.concat_map
      (fun (p : Ast.pred_decl) ->
        let goal =
          match p.pred_params with
          | [] -> p.pred_body
          | params -> Ast.Quant (Ast.Qsome, params, p.pred_body)
        in
        let holds =
          enumerate ~limit:(max 1 (per_kind / 2)) env scope goal
          |> List.map (fun inst ->
                 make
                   ~name:(fresh ("pred_" ^ p.pred_name ^ "_pos"))
                   ~target:(Pred p.pred_name) ~expect:true inst)
        in
        let fails =
          enumerate ~limit:(max 1 (per_kind / 2)) env scope (Ast.Not goal)
          |> List.map (fun inst ->
                 make
                   ~name:(fresh ("pred_" ^ p.pred_name ^ "_neg"))
                   ~target:(Pred p.pred_name) ~expect:false inst)
        in
        holds @ fails)
      env.spec.preds
  in
  positives @ negatives @ pred_tests

let of_counterexample ~name inst = make ~name ~target:Facts ~expect:false inst
