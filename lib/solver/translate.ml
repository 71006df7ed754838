open Specrepair_sat
module Alloy = Specrepair_alloy
module Ast = Alloy.Ast

exception Translate_error of string

type var_env = (string * Matrix.t) list

let err fmt = Format.kasprintf (fun m -> raise (Translate_error m)) fmt

let rec expr bounds (vars : var_env) (e : Ast.expr) =
  match e with
  | Ast.Rel name -> (
      match List.assoc_opt name vars with
      | Some m -> m
      | None -> (
          try Bounds.relation bounds name
          with Not_found -> (
            match Ast.find_fun bounds.Bounds.env.spec name with
            | Some f -> derived_relation bounds f
            | None -> err "unknown relation %s" name)))
  | Ast.Univ -> bounds.Bounds.univ_matrix
  | Ast.Iden -> bounds.Bounds.iden_matrix
  | Ast.None_ -> Matrix.empty ~n:(Array.length bounds.Bounds.atoms) 1
  | Ast.Unop (Transpose, e) -> Matrix.transpose (expr bounds vars e)
  | Ast.Unop (Closure, e) -> Matrix.closure (expr bounds vars e)
  | Ast.Unop (Rclosure, e) ->
      Matrix.union (Matrix.closure (expr bounds vars e)) bounds.Bounds.iden_matrix
  | Ast.Binop (Join, a, b) -> Matrix.join (expr bounds vars a) (expr bounds vars b)
  | Ast.Binop (Product, a, b) ->
      Matrix.product (expr bounds vars a) (expr bounds vars b)
  | Ast.Binop (Union, a, b) ->
      Matrix.union (expr bounds vars a) (expr bounds vars b)
  | Ast.Binop (Diff, a, b) -> Matrix.diff (expr bounds vars a) (expr bounds vars b)
  | Ast.Binop (Inter, a, b) ->
      Matrix.inter (expr bounds vars a) (expr bounds vars b)
  | Ast.Binop (Override, a, b) ->
      Matrix.override (expr bounds vars a) (expr bounds vars b)
  | Ast.Binop (Domrestr, s, e) ->
      Matrix.dom_restrict (expr bounds vars s) (expr bounds vars e)
  | Ast.Binop (Ranrestr, e, s) ->
      Matrix.ran_restrict (expr bounds vars e) (expr bounds vars s)
  | Ast.Ite (c, a, b) ->
      Matrix.ite (fmla bounds vars c) (expr bounds vars a) (expr bounds vars b)
  | Ast.Compr (decls, body) ->
      (* ground the declared variables over their bounds; each assignment
         contributes its tuple guarded by membership and the body *)
      let n = Array.length bounds.Bounds.atoms in
      let rec expand guard vars code = function
        | [] -> [ (code, Formula.and2 guard (fmla bounds vars body)) ]
        | (name, bound) :: rest ->
            let m = expr bounds vars bound in
            List.concat_map
              (fun (c, cell_guard) ->
                expand
                  (Formula.and2 guard cell_guard)
                  ((name, Matrix.singleton ~n m.Matrix.arity c) :: vars)
                  ((code * n) + Matrix.head m c)
                  rest)
              (Matrix.support m)
      in
      Matrix.of_cells ~n (List.length decls) (expand Formula.tru vars 0 decls)

(* The matrix a function denotes: ground the parameters over their bounds,
   prefix the parameter atoms to the body matrix tuples. *)
and derived_relation bounds (f : Ast.fun_decl) =
  let n = Array.length bounds.Bounds.atoms in
  (* the arity of the first cell found *)
  let arity = ref None in
  let rec expand guard vars prefix = function
    | [] ->
        let body = expr bounds vars f.fun_body in
        let shift = Matrix.size ~n body.Matrix.arity in
        let cells =
          List.map
            (fun (c, cell) -> ((prefix * shift) + c, Formula.and2 guard cell))
            (Matrix.support body)
        in
        if cells <> [] && !arity = None then
          arity := Some (List.length f.fun_params + body.Matrix.arity);
        cells
    | (name, bound) :: rest ->
        let m = expr bounds vars bound in
        List.concat_map
          (fun (c, cell_guard) ->
            expand
              (Formula.and2 guard cell_guard)
              ((name, Matrix.singleton ~n m.Matrix.arity c) :: vars)
              ((prefix * n) + Matrix.head m c)
              rest)
          (Matrix.support m)
  in
  let cells = expand Formula.tru [] 0 f.fun_params in
  Matrix.of_cells ~n
    (Option.value !arity ~default:(1 + List.length f.fun_params))
    cells

and fmla bounds vars (f : Ast.fmla) =
  match f with
  | Ast.True -> Formula.tru
  | Ast.False -> Formula.fls
  | Ast.Cmp (op, a, b) -> (
      let ma = expr bounds vars a and mb = expr bounds vars b in
      match op with
      | Cin -> Matrix.subset ma mb
      | Cnotin -> Formula.not_ (Matrix.subset ma mb)
      | Ceq -> Matrix.equal ma mb
      | Cneq -> Formula.not_ (Matrix.equal ma mb))
  | Ast.Multf (m, e) -> (
      let me = expr bounds vars e in
      match m with
      | Fno -> Matrix.no me
      | Fsome -> Matrix.some me
      | Flone -> Matrix.lone me
      | Fone -> Matrix.one me)
  | Ast.Card (op, e, k) ->
      let me = expr bounds vars e in
      let op =
        match op with
        | Ast.Ilt -> `Lt
        | Ast.Ile -> `Le
        | Ast.Ieq -> `Eq
        | Ast.Ineq -> `Ne
        | Ast.Ige -> `Ge
        | Ast.Igt -> `Gt
      in
      Matrix.card_compare op me k
  | Ast.Not f -> Formula.not_ (fmla bounds vars f)
  | Ast.And (a, b) -> Formula.and2 (fmla bounds vars a) (fmla bounds vars b)
  | Ast.Or (a, b) -> Formula.or2 (fmla bounds vars a) (fmla bounds vars b)
  | Ast.Implies (a, b) -> Formula.imp (fmla bounds vars a) (fmla bounds vars b)
  | Ast.Iff (a, b) -> Formula.iff (fmla bounds vars a) (fmla bounds vars b)
  | Ast.Quant (q, decls, body) -> quantified bounds vars q decls body
  | Ast.Let (name, value, body) ->
      let m = expr bounds vars value in
      fmla bounds ((name, m) :: vars) body
  | Ast.Call (name, args) -> (
      match Ast.find_pred bounds.Bounds.env.spec name with
      | None -> err "call to unknown predicate %s" name
      | Some p ->
          let values = List.map (expr bounds vars) args in
          let params =
            List.map2 (fun (n, _) v -> (n, v)) p.pred_params values
          in
          fmla bounds params p.pred_body)

(* Ground a quantifier: enumerate assignments of the declared variables to
   tuples in the upper bound of their bounding expressions, guarded by the
   membership formulas of those tuples. *)
and quantified bounds vars q decls body =
  let rec assignments guard vars = function
    | [] -> [ (guard, vars) ]
    | (name, bound) :: rest ->
        let m = expr bounds vars bound in
        List.concat_map
          (fun (c, cell_guard) ->
            assignments
              (Formula.and2 guard cell_guard)
              ((name, Matrix.singleton ~n:m.Matrix.n m.Matrix.arity c) :: vars)
              rest)
          (Matrix.support m)
  in
  let instantiations = assignments Formula.tru vars decls in
  match q with
  | Ast.Qall ->
      Formula.and_
        (List.map
           (fun (guard, vars) -> Formula.imp guard (fmla bounds vars body))
           instantiations)
  | Ast.Qsome ->
      Formula.or_
        (List.map
           (fun (guard, vars) -> Formula.and2 guard (fmla bounds vars body))
           instantiations)
  | Ast.Qno ->
      Formula.not_
        (Formula.or_
           (List.map
              (fun (guard, vars) -> Formula.and2 guard (fmla bounds vars body))
              instantiations))
  | Ast.Qlone ->
      Card.at_most 1
        (List.map
           (fun (guard, vars) -> Formula.and2 guard (fmla bounds vars body))
           instantiations)
  | Ast.Qone ->
      Card.exactly 1
        (List.map
           (fun (guard, vars) -> Formula.and2 guard (fmla bounds vars body))
           instantiations)

(* Implicit constraints plus child-signature scope caps: the part of a
   spec's translation that depends only on the signature declarations and
   the scope — the immutable base an incremental oracle asserts once. *)
let implicit_fmla bounds =
  let env = bounds.Bounds.env in
  let implicit = Alloy.Implicit.constraints env in
  (* scope overrides naming non-top signatures become cardinality caps *)
  let scope_caps =
    List.filter_map
      (fun (name, k) ->
        if List.mem name env.top_sigs then None
        else Some (Ast.Card (Ast.Ile, Ast.Rel name, k)))
      bounds.Bounds.scope.overrides
  in
  Formula.and_ (List.map (fmla bounds []) (implicit @ scope_caps))

let spec_fmla ?facts bounds =
  let env = bounds.Bounds.env in
  let implicit = List.map (fmla bounds []) (Alloy.Implicit.constraints env) in
  let facts =
    match facts with
    | Some facts -> facts
    | None -> List.map (fun f -> fmla bounds [] f.Ast.fact_body) env.spec.facts
  in
  let scope_caps =
    List.filter_map
      (fun (name, k) ->
        if List.mem name env.top_sigs then None
        else Some (fmla bounds [] (Ast.Card (Ast.Ile, Ast.Rel name, k))))
      bounds.Bounds.scope.overrides
  in
  (* conjoined in this exact order (implicit, facts, caps): definition
     variables are allocated in traversal order and the first model found
     depends on it; [Oracle]'s fresh-path fallback must match a plain
     {!Analyzer} solve bit for bit *)
  Formula.and_ (implicit @ facts @ scope_caps)

let pred_goal bounds (p : Ast.pred_decl) =
  match p.pred_params with
  | [] -> fmla bounds [] p.pred_body
  | params -> fmla bounds [] (Ast.Quant (Ast.Qsome, params, p.pred_body))
