module Ast = Specrepair_alloy.Ast
module Pretty = Specrepair_alloy.Pretty

type tree = Node of string * tree list

let leaf label = Node (label, [])

let rec of_expr = function
  | Ast.Rel n -> Node ("rel:" ^ n, [])
  | Ast.Univ -> leaf "univ"
  | Ast.Iden -> leaf "iden"
  | Ast.None_ -> leaf "none"
  | Ast.Unop (op, e) ->
      Node
        ( (match op with
          | Transpose -> "transpose"
          | Closure -> "closure"
          | Rclosure -> "rclosure"),
          [ of_expr e ] )
  | Ast.Binop (op, a, b) -> Node (binop_label op, [ of_expr a; of_expr b ])
  | Ast.Ite (c, a, b) -> Node ("ite", [ of_fmla c; of_expr a; of_expr b ])
  | Ast.Compr (decls, body) ->
      Node
        ( "compr",
          List.map (fun (x, bound) -> Node ("decl:" ^ x, [ of_expr bound ])) decls
          @ [ of_fmla body ] )

and binop_label op =
  match op with
  | Ast.Join -> "join"
  | Ast.Product -> "product"
  | Ast.Union -> "union"
  | Ast.Diff -> "diff"
  | Ast.Inter -> "inter"
  | Ast.Override -> "override"
  | Ast.Domrestr -> "domrestr"
  | Ast.Ranrestr -> "ranrestr"

and of_fmla = function
  | Ast.True -> leaf "true"
  | Ast.False -> leaf "false"
  | Ast.Cmp (op, a, b) ->
      let label =
        match op with
        | Ast.Cin -> "in"
        | Ast.Cnotin -> "notin"
        | Ast.Ceq -> "eq"
        | Ast.Cneq -> "neq"
      in
      Node ("cmp:" ^ label, [ of_expr a; of_expr b ])
  | Ast.Multf (m, e) -> Node ("mult:" ^ Pretty.fmult_to_string m, [ of_expr e ])
  | Ast.Card (op, e, k) ->
      Node
        ( "card:" ^ intcmp_label op,
          [ of_expr e; leaf ("int:" ^ string_of_int k) ] )
  | Ast.Not f -> Node ("not", [ of_fmla f ])
  | Ast.And (a, b) -> Node ("and", [ of_fmla a; of_fmla b ])
  | Ast.Or (a, b) -> Node ("or", [ of_fmla a; of_fmla b ])
  | Ast.Implies (a, b) -> Node ("implies", [ of_fmla a; of_fmla b ])
  | Ast.Iff (a, b) -> Node ("iff", [ of_fmla a; of_fmla b ])
  | Ast.Quant (q, decls, body) ->
      Node
        ( "quant:" ^ Pretty.quant_to_string q,
          List.map
            (fun (x, bound) -> Node ("decl:" ^ x, [ of_expr bound ]))
            decls
          @ [ of_fmla body ] )
  | Ast.Call (name, args) -> Node ("call:" ^ name, List.map of_expr args)
  | Ast.Let (name, value, body) ->
      Node ("let:" ^ name, [ of_expr value; of_fmla body ])

and intcmp_label = function
  | Ast.Ilt -> "lt"
  | Ast.Ile -> "le"
  | Ast.Ieq -> "eq"
  | Ast.Ineq -> "neq"
  | Ast.Ige -> "ge"
  | Ast.Igt -> "gt"

let of_field (f : Ast.field) =
  Node
    ( "field:" ^ f.fld_name ^ ":" ^ Pretty.mult_to_string f.fld_mult,
      List.map of_expr f.fld_cols )

let of_sig (s : Ast.sig_decl) =
  let label =
    Printf.sprintf "sig:%s:%s:%s%s" s.sig_name
      (Pretty.mult_to_string s.sig_mult)
      (if s.sig_abstract then "abstract" else "concrete")
      (match s.sig_parent with Some p -> ":extends:" ^ p | None -> "")
  in
  Node (label, List.map of_field s.sig_fields)

let of_command (c : Ast.command) =
  let scopes =
    List.map
      (fun (n, k) -> leaf (Printf.sprintf "scope:%s:%d" n k))
      c.cmd_scopes
  in
  match c.cmd_kind with
  | Ast.Run_pred n ->
      Node (Printf.sprintf "run:%s:%d" n c.cmd_scope, scopes)
  | Ast.Run_fmla f -> Node (Printf.sprintf "run:%d" c.cmd_scope, of_fmla f :: scopes)
  | Ast.Check n -> Node (Printf.sprintf "check:%s:%d" n c.cmd_scope, scopes)

let of_spec (spec : Ast.spec) =
  Node
    ( "spec",
      List.map of_sig spec.sigs
      @ List.map
          (fun (f : Ast.fact_decl) ->
            Node
              ( ("fact" ^ match f.fact_name with Some n -> ":" ^ n | None -> ""),
                [ of_fmla f.fact_body ] ))
          spec.facts
      @ List.map
          (fun (f : Ast.fun_decl) ->
            Node
              ( "fun:" ^ f.fun_name,
                List.map
                  (fun (x, bound) -> Node ("param:" ^ x, [ of_expr bound ]))
                  f.fun_params
                @ [ of_expr f.fun_result; of_expr f.fun_body ] ))
          spec.funs
      @ List.map
          (fun (p : Ast.pred_decl) ->
            Node
              ( "pred:" ^ p.pred_name,
                List.map
                  (fun (x, bound) -> Node ("param:" ^ x, [ of_expr bound ]))
                  p.pred_params
                @ [ of_fmla p.pred_body ] ))
          spec.preds
      @ List.map
          (fun (a : Ast.assert_decl) ->
            Node ("assert:" ^ a.assert_name, [ of_fmla a.assert_body ]))
          spec.asserts
      @ List.map of_command spec.commands )

(* Flatten a tree to arrays: per node, its label and the ids of its
   children.  Node 0 is the root; ids are preorder. *)
let annotate t =
  let labels = ref [] and children = ref [] and count = ref 0 in
  let rec walk (Node (label, kids)) =
    let id = !count in
    incr count;
    labels := (id, label) :: !labels;
    let kid_ids = List.map walk kids in
    children := (id, kid_ids) :: !children;
    id
  in
  ignore (walk t);
  let n = !count in
  let label_arr = Array.make n "" in
  List.iter (fun (i, l) -> label_arr.(i) <- l) !labels;
  let child_arr = Array.make n [] in
  List.iter (fun (i, ks) -> child_arr.(i) <- ks) !children;
  (label_arr, child_arr)

(* Collins-Duffy subset-tree kernel with decay.  C(n1, n2) = 0 when labels
   or child counts differ; lambda when both are leaves; otherwise
   lambda * prod_i (1 + C(child_i, child_i')). *)
let kernel ?(decay = 0.2) t1 t2 =
  let l1, c1 = annotate t1 and l2, c2 = annotate t2 in
  let n1 = Array.length l1 and n2 = Array.length l2 in
  let memo = Array.make (n1 * n2) Float.nan in
  let rec c i j =
    if l1.(i) <> l2.(j) || List.length c1.(i) <> List.length c2.(j) then 0.
    else begin
      let key = (i * n2) + j in
      let v = memo.(key) in
      if not (Float.is_nan v) then v
      else begin
        let v =
          if c1.(i) = [] then decay
          else
            decay
            *. List.fold_left2
                 (fun acc ki kj -> acc *. (1. +. c ki kj))
                 1. c1.(i) c2.(j)
        in
        memo.(key) <- v;
        v
      end
    end
  in
  let total = ref 0. in
  for i = 0 to n1 - 1 do
    for j = 0 to n2 - 1 do
      total := !total +. c i j
    done
  done;
  !total

let similarity ?(decay = 0.2) t1 t2 =
  let k12 = kernel ~decay t1 t2 in
  let k11 = kernel ~decay t1 t1 in
  let k22 = kernel ~decay t2 t2 in
  if k11 <= 0. || k22 <= 0. then 0. else k12 /. sqrt (k11 *. k22)

let syntax_match a b = similarity (of_spec a) (of_spec b)
