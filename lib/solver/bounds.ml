open Specrepair_sat
module Alloy = Specrepair_alloy
module Ast = Alloy.Ast
module Tuple = Alloy.Instance.Tuple

type scope = { default : int; overrides : (string * int) list }

let scope_of_command (c : Ast.command) =
  { default = c.cmd_scope; overrides = c.cmd_scopes }

type t = {
  env : Alloy.Typecheck.env;
  solver : Solver.t;
  scope : scope;
  pools : (string * string list) list;
  universe : string list;
  atoms : string array;
  index : (string, int) Hashtbl.t;
  rel_vars : (string, (Tuple.t * int) list) Hashtbl.t;
  matrices : (string, Matrix.t) Hashtbl.t;
  univ_matrix : Matrix.t;
  iden_matrix : Matrix.t;
}

(* Syntactic over-approximation of the atoms an expression can contain:
   the pools of the roots of all signatures it mentions, or the whole
   universe when none can be identified. *)
let rec sig_names_of_expr (env : Alloy.Typecheck.env) = function
  | Ast.Rel n -> if Ast.find_sig env.spec n <> None then [ n ] else []
  | Ast.Univ | Ast.Iden | Ast.None_ -> []
  | Ast.Unop (_, e) -> sig_names_of_expr env e
  | Ast.Binop (_, a, b) -> sig_names_of_expr env a @ sig_names_of_expr env b
  | Ast.Ite (_, a, b) -> sig_names_of_expr env a @ sig_names_of_expr env b
  | Ast.Compr (decls, _) -> List.concat_map (fun (_, e) -> sig_names_of_expr env e) decls

let pool_of_expr env pools universe e =
  match sig_names_of_expr env e with
  | [] -> universe
  | names ->
      let roots =
        List.sort_uniq String.compare
          (List.map (Alloy.Typecheck.root_of env) names)
      in
      List.concat_map
        (fun r -> Option.value ~default:[] (List.assoc_opt r pools))
        roots

let rec cartesian = function
  | [] -> [ [] ]
  | pool :: rest ->
      let tails = cartesian rest in
      List.concat_map (fun a -> List.map (fun t -> a :: t) tails) pool

let create solver (env : Alloy.Typecheck.env) scope =
  let spec = env.spec in
  let pools =
    List.map
      (fun top ->
        let n =
          match List.assoc_opt top scope.overrides with
          | Some k -> k
          | None -> scope.default
        in
        (top, List.init n (Alloy.Instance.atom_name top)))
      env.top_sigs
  in
  let universe = List.concat_map snd pools in
  (* the interned universe: atom [i] is the [i]th name in [String.compare]
     order, so code order is {!Tuple.compare} order *)
  let atoms = Array.of_list (List.sort_uniq String.compare universe) in
  let index = Hashtbl.create (Array.length atoms) in
  Array.iteri (fun i a -> Hashtbl.replace index a i) atoms;
  let n = Array.length atoms in
  let code tuple = Matrix.encode ~n (Array.map (Hashtbl.find index) tuple) in
  let rel_vars = Hashtbl.create 32 in
  let matrices = Hashtbl.create 32 in
  let alloc name tuples =
    let cells =
      List.map
        (fun tuple ->
          let v = Solver.new_var solver in
          (tuple, v))
        tuples
    in
    Hashtbl.replace rel_vars name cells;
    let arity = match tuples with t :: _ -> Array.length t | [] -> 1 in
    Hashtbl.replace matrices name
      (Matrix.of_cells ~n arity
         (List.map (fun (t, v) -> (code t, Formula.var v)) cells))
  in
  (* signatures: membership variables over the root pool *)
  List.iter
    (fun (s : Ast.sig_decl) ->
      let root = Alloy.Typecheck.root_of env s.sig_name in
      let pool = Option.value ~default:[] (List.assoc_opt root pools) in
      alloc s.sig_name (List.map (fun a -> [| a |]) pool))
    spec.sigs;
  (* symmetry breaking: top-level pools are used in index order *)
  List.iter
    (fun top ->
      match Hashtbl.find_opt rel_vars top with
      | Some cells ->
          let vars = List.map snd cells in
          let rec chain = function
            | v1 :: v2 :: rest ->
                Solver.add_clause solver [ Lit.pos v1; Lit.neg v2 ];
                chain (v2 :: rest)
            | _ -> ()
          in
          chain vars
      | None -> ())
    env.top_sigs;
  (* fields: tuple variables over owner pool x column pools *)
  List.iter
    (fun (s : Ast.sig_decl) ->
      let owner_pool =
        pool_of_expr env pools universe (Ast.Rel s.sig_name)
      in
      List.iter
        (fun (f : Ast.field) ->
          let col_pools =
            List.map (pool_of_expr env pools universe) f.fld_cols
          in
          let tuples =
            List.map Array.of_list (cartesian (owner_pool :: col_pools))
          in
          alloc f.fld_name tuples)
        s.sig_fields)
    spec.sigs;
  let top_matrices =
    List.filter_map (fun top -> Hashtbl.find_opt matrices top) env.top_sigs
  in
  let univ_matrix =
    List.fold_left Matrix.union (Matrix.empty ~n 1) top_matrices
  in
  let iden_matrix =
    Matrix.of_cells ~n 2
      (List.map
         (fun a ->
           (code [| a; a |], Matrix.cell univ_matrix (Hashtbl.find index a)))
         universe)
  in
  {
    env;
    solver;
    scope;
    pools;
    universe;
    atoms;
    index;
    rel_vars;
    matrices;
    univ_matrix;
    iden_matrix;
  }

let relation t name =
  match Hashtbl.find_opt t.matrices name with
  | Some m -> m
  | None -> raise Not_found

let extract t value =
  let spec = t.env.spec in
  let sigs =
    List.map
      (fun (s : Ast.sig_decl) ->
        let cells = Hashtbl.find t.rel_vars s.sig_name in
        ( s.sig_name,
          List.filter_map
            (fun ((tuple : Tuple.t), v) ->
              if value v then Some tuple.(0) else None)
            cells ))
      spec.sigs
  in
  let fields =
    List.concat_map
      (fun (s : Ast.sig_decl) ->
        List.map
          (fun (f : Ast.field) ->
            let cells = Hashtbl.find t.rel_vars f.fld_name in
            ( f.fld_name,
              Alloy.Instance.Tuple_set.of_list
                (List.filter_map
                   (fun (tuple, v) -> if value v then Some tuple else None)
                   cells) ))
          s.sig_fields)
      spec.sigs
  in
  { Alloy.Instance.sigs; fields }

(* The translation consults [env] only for declarations that the oracle
   gate guarantees unchanged (sigs) or that the caller keys its reuse on
   (preds, funs): swapping the env lets one variable allocation serve every
   candidate spec that shares the base's signature structure. *)
let with_env t env = { t with env }
