open Ast

let mult_to_string = function
  | Mone -> "one"
  | Mlone -> "lone"
  | Msome -> "some"
  | Mset -> "set"

let fmult_to_string = function
  | Fno -> "no"
  | Fsome -> "some"
  | Flone -> "lone"
  | Fone -> "one"

let quant_to_string = function
  | Qall -> "all"
  | Qsome -> "some"
  | Qno -> "no"
  | Qlone -> "lone"
  | Qone -> "one"

let unop_to_string = function
  | Transpose -> "~"
  | Closure -> "^"
  | Rclosure -> "*"

(* Binding strength of expression operators; see the parser for the
   grammar.  Higher binds tighter. *)
let binop_level = function
  | Union | Diff -> 1
  | Override -> 2
  | Inter -> 3
  | Product -> 4
  | Domrestr | Ranrestr -> 5
  | Join -> 6

let binop_to_string = function
  | Join -> "."
  | Product -> "->"
  | Union -> "+"
  | Diff -> "-"
  | Inter -> "&"
  | Override -> "++"
  | Domrestr -> "<:"
  | Ranrestr -> ":>"

let cmpop_to_string = function
  | Cin -> "in"
  | Cnotin -> "not in"
  | Ceq -> "="
  | Cneq -> "!="

let intcmp_to_string = function
  | Ilt -> "<"
  | Ile -> "<="
  | Ieq -> "="
  | Ineq -> "!="
  | Ige -> ">="
  | Igt -> ">"

let buffer_with f =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* {2 Expressions} *)

let rec pp_expr_level lvl ppf e =
  match e with
  | Rel n -> Format.pp_print_string ppf n
  | Univ -> Format.pp_print_string ppf "univ"
  | Iden -> Format.pp_print_string ppf "iden"
  | None_ -> Format.pp_print_string ppf "none"
  | Unop (op, inner) ->
      if lvl > 7 then
        Format.fprintf ppf "(%s%a)" (unop_to_string op) (pp_expr_level 7) inner
      else Format.fprintf ppf "%s%a" (unop_to_string op) (pp_expr_level 7) inner
  | Binop (op, a, b) ->
      let l = binop_level op in
      let body ppf () =
        if op = Join then
          Format.fprintf ppf "%a.%a" (pp_expr_level l) a (pp_expr_level (l + 1)) b
        else
          Format.fprintf ppf "%a %s %a" (pp_expr_level l) a (binop_to_string op)
            (pp_expr_level (l + 1)) b
      in
      if l < lvl then Format.fprintf ppf "(%a)" body ()
      else body ppf ()
  | Ite (c, a, b) ->
      Format.fprintf ppf "(%a => %a else %a)" pp_fmla_level_0 c
        (pp_expr_level 0) a (pp_expr_level 0) b
  | Compr (decls, body) ->
      Format.fprintf ppf "{ %a | %a }" pp_decls decls pp_fmla_level_0 body

and pp_expr ppf e = pp_expr_level 0 ppf e

(* {2 Formulas}

   Levels, loosest first: 0 quantified, 1 ||, 2 <=>, 3 =>, 4 &&, 5 !,
   6 atoms. *)

and pp_fmla_level lvl ppf f =
  let paren_if cond body =
    if cond then Format.fprintf ppf "(%t)" body else body ppf
  in
  match f with
  | True -> Format.pp_print_string ppf "univ = univ"
  | False -> Format.pp_print_string ppf "univ != univ"
  | Cmp (op, a, b) ->
      Format.fprintf ppf "%a %s %a" (pp_expr_level 0) a (cmpop_to_string op)
        (pp_expr_level 0) b
  | Multf (m, e) ->
      Format.fprintf ppf "%s %a" (fmult_to_string m) (pp_expr_level 0) e
  | Card (op, e, k) ->
      Format.fprintf ppf "#%a %s %d" (pp_expr_level 6) e (intcmp_to_string op) k
  | Not inner ->
      paren_if (lvl > 5) (fun ppf ->
          Format.fprintf ppf "!%a" (pp_fmla_level 5) inner)
  | And (a, b) ->
      paren_if (lvl > 4) (fun ppf ->
          Format.fprintf ppf "%a && %a" (pp_fmla_level 4) a (pp_fmla_level 5) b)
  | Implies (a, b) ->
      paren_if (lvl > 3) (fun ppf ->
          Format.fprintf ppf "%a => %a" (pp_fmla_level 4) a (pp_fmla_level 3) b)
  | Iff (a, b) ->
      paren_if (lvl > 2) (fun ppf ->
          Format.fprintf ppf "%a <=> %a" (pp_fmla_level 2) a (pp_fmla_level 3) b)
  | Or (a, b) ->
      paren_if (lvl > 1) (fun ppf ->
          Format.fprintf ppf "%a || %a" (pp_fmla_level 1) a (pp_fmla_level 2) b)
  | Quant (q, decls, body) ->
      paren_if (lvl > 0) (fun ppf ->
          Format.fprintf ppf "%s %a | %a" (quant_to_string q) pp_decls decls
            (pp_fmla_level 0) body)
  | Let (name, value, body) ->
      paren_if (lvl > 0) (fun ppf ->
          Format.fprintf ppf "let %s = %a | %a" name (pp_expr_level 0) value
            (pp_fmla_level 0) body)
  | Call (name, []) -> Format.pp_print_string ppf name
  | Call (name, args) ->
      Format.fprintf ppf "%s[%a]" name
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (pp_expr_level 0))
        args

and pp_fmla_level_0 ppf f = pp_fmla_level 0 ppf f

and pp_decls ppf decls =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf (name, bound) ->
      Format.fprintf ppf "%s: %a" name (pp_expr_level 0) bound)
    ppf decls

and pp_fmla ppf f = pp_fmla_level 0 ppf f

(* Flatten the left spine of conjunctions: a fact body parsed from a block
   of statements refolds to the same AST. *)
let rec block_lines = function
  | And (a, b) -> block_lines a @ [ b ]
  | True -> []
  | f -> [ f ]

let pp_block ppf body =
  match block_lines body with
  | [] -> Format.fprintf ppf "{ }"
  | lines ->
      Format.fprintf ppf "{@\n";
      List.iter (fun f -> Format.fprintf ppf "  %a@\n" pp_fmla f) lines;
      Format.fprintf ppf "}"

(* {2 Paragraphs} *)

let pp_field ppf { fld_name; fld_cols; fld_mult } =
  (* columns print at restriction level (parenthesised below it), matching
     the parser, which treats arrows as column breaks *)
  let pp_col = pp_expr_level 5 in
  let rec pp_cols ppf = function
    | [] -> ()
    | [ last ] -> (
        match (fld_cols, fld_mult) with
        | [ _ ], Mone -> pp_col ppf last (* default for binary fields *)
        | _ :: _ :: _, Mset -> pp_col ppf last (* default for higher arity *)
        | _ ->
            Format.fprintf ppf "%s %a" (mult_to_string fld_mult) pp_col last)
    | col :: rest ->
        Format.fprintf ppf "%a -> " pp_col col;
        pp_cols ppf rest
  in
  Format.fprintf ppf "%s: %a" fld_name pp_cols fld_cols

let pp_sig ppf s =
  if s.sig_abstract then Format.pp_print_string ppf "abstract ";
  (match s.sig_mult with
  | Mset -> ()
  | m -> Format.fprintf ppf "%s " (mult_to_string m));
  Format.fprintf ppf "sig %s" s.sig_name;
  (match s.sig_parent with
  | Some p -> Format.fprintf ppf " extends %s" p
  | None -> ());
  match s.sig_fields with
  | [] -> Format.fprintf ppf " {}@\n"
  | fields ->
      Format.fprintf ppf " {@\n";
      let rec loop = function
        | [] -> ()
        | [ f ] -> Format.fprintf ppf "  %a@\n" pp_field f
        | f :: rest ->
            Format.fprintf ppf "  %a,@\n" pp_field f;
            loop rest
      in
      loop fields;
      Format.fprintf ppf "}@\n"

let pp_scopes ppf (scope, overrides) =
  Format.fprintf ppf " for %d" scope;
  match overrides with
  | [] -> ()
  | _ ->
      Format.fprintf ppf " but %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (fun ppf (name, k) -> Format.fprintf ppf "%d %s" k name))
        overrides

let pp_command ppf c =
  (match c.cmd_kind with
  | Run_pred name -> Format.fprintf ppf "run %s" name
  | Run_fmla f -> Format.fprintf ppf "run %a" pp_block f
  | Check name -> Format.fprintf ppf "check %s" name);
  pp_scopes ppf (c.cmd_scope, c.cmd_scopes);
  Format.fprintf ppf "@\n"

let pp_module ppf = function
  | Some n -> Format.fprintf ppf "module %s@\n@\n" n
  | None -> ()

let pp_fact ppf f =
  match f.fact_name with
  | Some n -> Format.fprintf ppf "@\nfact %s %a@\n" n pp_block f.fact_body
  | None -> Format.fprintf ppf "@\nfact %a@\n" pp_block f.fact_body

let pp_fun ppf (f : fun_decl) =
  Format.fprintf ppf "@\nfun %s[%a]: %a {@\n  %a@\n}@\n" f.fun_name pp_decls
    f.fun_params pp_expr f.fun_result pp_expr f.fun_body

let pp_pred ppf p =
  match p.pred_params with
  | [] -> Format.fprintf ppf "@\npred %s %a@\n" p.pred_name pp_block p.pred_body
  | params ->
      Format.fprintf ppf "@\npred %s[%a] %a@\n" p.pred_name pp_decls params
        pp_block p.pred_body

let pp_assert ppf a =
  Format.fprintf ppf "@\nassert %s %a@\n" a.assert_name pp_block a.assert_body

let pp_commands ppf = function
  | [] -> ()
  | commands ->
      Format.fprintf ppf "@\n";
      List.iter (pp_command ppf) commands

let pp_spec ppf spec =
  pp_module ppf spec.module_name;
  List.iter (pp_sig ppf) spec.sigs;
  List.iter (pp_fact ppf) spec.facts;
  List.iter (pp_fun ppf) spec.funs;
  List.iter (pp_pred ppf) spec.preds;
  List.iter (pp_assert ppf) spec.asserts;
  pp_commands ppf spec.commands

let expr_to_string e = buffer_with (fun ppf -> pp_expr ppf e)
let fmla_to_string f = buffer_with (fun ppf -> pp_fmla ppf f)
let spec_to_string s = buffer_with (fun ppf -> pp_spec ppf s)

(* Concrete Alloy 4.2 source for a kernel spec.  The contract with the
   frontend is the round-trip fixpoint: [Parser.parse (source s)] equals
   [s] for any parser-produced [s].  [True]/[False] print as
   [univ = univ] / [univ != univ], which elaboration folds back to the
   boolean constants. *)
let source = spec_to_string
