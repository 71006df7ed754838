module Alloy = Specrepair_alloy
module Ast = Specrepair_alloy.Ast
open Ast

type t = {
  site : Location.site;
  path : Location.path;
  replacement : Location.node;
  op : string;
}

let pp ppf m =
  let repl =
    match m.replacement with
    | Location.F f -> Alloy.Pretty.fmla_to_string f
    | Location.E e -> Alloy.Pretty.expr_to_string e
  in
  Format.fprintf ppf "%s at %s[%s]: %s" m.op
    (Location.site_to_string m.site)
    (Location.path_to_string m.path)
    repl

let apply spec m =
  let body = Location.body spec m.site in
  Location.with_body spec m.site (Location.replace body m.path m.replacement)

let binop_swaps = function
  | Union -> [ Diff; Inter ]
  | Diff -> [ Union; Inter ]
  | Inter -> [ Union; Diff ]
  | Override -> [ Union ]
  | Join | Product | Domrestr | Ranrestr -> []

let cmpop_swaps = function
  | Cin -> [ Ceq; Cnotin ]
  | Cnotin -> [ Cin; Cneq ]
  | Ceq -> [ Cin; Cneq ]
  | Cneq -> [ Ceq; Cnotin ]

let fmult_swaps = function
  | Fno -> [ Fsome; Flone ]
  | Fsome -> [ Fno; Fone; Flone ]
  | Flone -> [ Fone; Fsome; Fno ]
  | Fone -> [ Flone; Fsome ]

let quant_swaps = function
  | Qall -> [ Qsome; Qno; Qone ]
  | Qsome -> [ Qall; Qno; Qone ]
  | Qno -> [ Qsome; Qall; Qlone ]
  | Qlone -> [ Qone; Qall ]
  | Qone -> [ Qlone; Qsome; Qall ]

let intcmp_swaps = function
  | Ilt -> [ Ile; Igt ]
  | Ile -> [ Ilt; Ige; Ieq ]
  | Ieq -> [ Ineq; Ile; Ige ]
  | Ineq -> [ Ieq ]
  | Ige -> [ Igt; Ile; Ieq ]
  | Igt -> [ Ige; Ilt ]

(* Replacement pools of one mutation-space build: each pool is enumerated
   once and shared by every node that asks for it (same variables in
   scope, same arity and size).  The tables live only as long as the
   build. *)
type pools = {
  exprs :
    vars:(string * int) list -> arity:int -> depth:int -> limit:int ->
    expr list;
  atoms : vars:(string * int) list -> limit:int -> fmla list;
}

let shared_pools env =
  let memo tbl key build =
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
        let v = build () in
        Hashtbl.add tbl key v;
        v
  in
  let exprs_tbl = Hashtbl.create 16 and atoms_tbl = Hashtbl.create 16 in
  {
    exprs =
      (fun ~vars ~arity ~depth ~limit ->
        memo exprs_tbl (vars, arity, depth, limit) (fun () ->
            Pool.exprs env ~vars ~arity ~depth ~limit ()));
    atoms =
      (fun ~vars ~limit ->
        memo atoms_tbl (vars, limit) (fun () ->
            Pool.atomic_fmlas env ~vars ~limit ()));
  }

(* Mutations of an expression node: its structural edits, and a thunk
   for its pool replacements. *)
let expr_mutations env pools vars e ~with_pool =
  let arity_of e =
    match Alloy.Typecheck.expr_arity env vars e with
    | a -> Some a
    | exception Alloy.Typecheck.Type_error _ -> None
  in
  let arity = arity_of e in
  let structural =
    match e with
    | Binop (op, a, b) ->
        List.map (fun op' -> ("binop-swap", Binop (op', a, b))) (binop_swaps op)
        @ (match op with
          | Union | Diff | Inter ->
              [ ("operand-drop", a); ("operand-drop", b) ]
          | Join | Product | Override | Domrestr | Ranrestr -> [])
        @
        (match op with
        | Product when arity_of a = arity_of b ->
            [ ("operand-swap", Binop (op, b, a)) ]
        | _ -> [])
    | Unop (Closure, inner) ->
        [ ("closure-swap", Unop (Rclosure, inner)); ("closure-drop", inner) ]
    | Unop (Rclosure, inner) ->
        [ ("closure-swap", Unop (Closure, inner)); ("closure-drop", inner) ]
    | Unop (Transpose, inner) -> [ ("transpose-drop", inner) ]
    | Rel _ | Univ | Iden | None_ | Ite _ -> []
    | Compr (decls, body) ->
        (* comprehension body quantifier-polarity flips *)
        [ ("compr-negate", Compr (decls, Not body)) ]
  in
  let unary_additions =
    match arity with
    | Some 2 -> (
        match e with
        | Unop _ -> []
        | _ ->
            [
              ("closure-add", Unop (Closure, e));
              ("transpose-add", Unop (Transpose, e));
            ])
    | _ -> []
  in
  let pool_replacements () =
    match arity with
    | Some a ->
        let depth = if with_pool then 2 else 1 in
        let limit = if with_pool then 60 else 15 in
        pools.exprs ~vars ~arity:a ~depth ~limit
        |> List.filter (fun e' -> e' <> e)
        |> List.map (fun e' -> ("expr-replace", e'))
    | None -> []
  in
  (structural @ unary_additions, pool_replacements)

(* Mutations of a formula node: its structural edits, and a thunk for its
   pool replacements. *)
let fmla_mutations pools vars f ~with_pool =
  let structural =
    match f with
    | Cmp (op, a, b) ->
        List.map (fun op' -> ("cmpop-swap", Cmp (op', a, b))) (cmpop_swaps op)
        @ [ ("cmp-operand-swap", Cmp (op, b, a)) ]
    | Multf (m, e) ->
        List.map (fun m' -> ("fmult-swap", Multf (m', e))) (fmult_swaps m)
    | Card (op, e, k) ->
        List.map (fun op' -> ("intcmp-swap", Card (op', e, k))) (intcmp_swaps op)
        @ (("card-bump", Card (op, e, k + 1))
          :: (if k > 0 then [ ("card-bump", Card (op, e, k - 1)) ] else []))
    | Not g -> [ ("negation-drop", g) ]
    | And (a, b) ->
        [
          ("junct-drop", a);
          ("junct-drop", b);
          ("connective-swap", Or (a, b));
          ("connective-swap", Implies (a, b));
        ]
    | Or (a, b) ->
        [
          ("junct-drop", a);
          ("junct-drop", b);
          ("connective-swap", And (a, b));
          ("connective-swap", Implies (a, b));
        ]
    | Implies (a, b) ->
        [
          ("connective-swap", And (a, b));
          ("connective-swap", Or (a, b));
          ("connective-swap", Iff (a, b));
          ("implies-flip", Implies (b, a));
          ("implies-drop-lhs", b);
        ]
    | Iff (a, b) ->
        [ ("connective-swap", Implies (a, b)); ("connective-swap", And (a, b)) ]
    | Quant (q, decls, body) ->
        List.map (fun q' -> ("quant-swap", Quant (q', decls, body))) (quant_swaps q)
    | True | False | Call _ | Let _ -> []
  in
  let negation_add =
    match f with Not _ -> [] | _ -> [ ("negation-add", Not f) ]
  in
  let pool_juncts () =
    if not with_pool then []
    else
      pools.atoms ~vars ~limit:40
      |> List.concat_map (fun atom ->
             [
               ("junct-add-and", And (f, atom));
               ("junct-add-or", Or (f, atom));
             ])
  in
  (structural @ negation_add, pool_juncts)

(* The mutations of one node, no-ops dropped: its structural edits, and a
   thunk for its pool replacements (the {!from_pool} ones), which every
   node offers after its structural edits. *)
let node_mutations env pools spec site path ~with_pool =
  let node = Location.get (Location.body spec site) path in
  let vars = Location.vars_at env spec site path in
  let lift (plain, pooled) wrap =
    let mutation (op, r) = { site; path; replacement = wrap r; op } in
    (* drop no-op mutations *)
    let keep m = m.replacement <> node in
    ( List.filter keep (List.map mutation plain),
      fun () -> List.filter keep (List.map mutation (pooled ())) )
  in
  match node with
  | Location.F f ->
      lift (fmla_mutations pools vars f ~with_pool) (fun f' -> Location.F f')
  | Location.E e ->
      lift (expr_mutations env pools vars e ~with_pool) (fun e' -> Location.E e')

let mutations_with env pools spec site path ~with_pool =
  let plain, pooled = node_mutations env pools spec site path ~with_pool in
  plain @ pooled ()

let mutations_at env spec site path ?(with_pool = false) () =
  mutations_with env (shared_pools env) spec site path ~with_pool

(* The nodes of [sites], in enumeration order. *)
let nodes spec sites =
  List.concat_map
    (fun site ->
      List.map (fun (path, _) -> (site, path))
        (Location.subnodes (Location.body spec site)))
    sites

let all_mutations env spec ?sites ?(with_pool = false) () =
  let sites = match sites with Some s -> s | None -> Location.sites spec in
  let pools = shared_pools env in
  List.concat_map
    (fun (site, path) -> mutations_with env pools spec site path ~with_pool)
    (nodes spec sites)

(* Each node's replacements with repeats dropped, first kept.  A node's
   structural edits are a handful, so a scan finds their repeats; its
   pool replacements are a hundred-odd, so they go through a table that
   starts with the structural ones.  The key is the replacement alone:
   every mutation of a node shares its site and path, and a key that
   starts with them spends the polymorphic hash's ten meaningful words
   there, so all of a node's replacements would share one bucket. *)
let candidates_by_node (env : Alloy.Typecheck.env) ~sites ~with_pool =
  let pools = shared_pools env in
  List.map
    (fun (site, path) ->
      let plain, pooled =
        node_mutations env pools env.spec site path ~with_pool
      in
      let plain =
        List.rev
          (List.fold_left
             (fun kept m ->
               if List.exists (fun k -> k.replacement = m.replacement) kept
               then kept
               else m :: kept)
             [] plain)
      in
      let pooled () =
        let seen = Hashtbl.create 64 in
        List.iter (fun m -> Hashtbl.add seen m.replacement ()) plain;
        List.filter
          (fun m ->
            if Hashtbl.mem seen m.replacement then false
            else begin
              Hashtbl.add seen m.replacement ();
              true
            end)
          (pooled ())
      in
      (plain, pooled))
    (nodes env.spec sites)

let from_pool m =
  match m.op with
  | "expr-replace" | "junct-add-and" | "junct-add-or" -> true
  | _ -> false

let well_typed _env spec =
  match Alloy.Typecheck.check_result spec with Ok _ -> true | Error _ -> false
