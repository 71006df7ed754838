(** Pretty printer for Mini-Alloy.

    Output is stable and re-parseable: [Parser.parse (spec_to_string s)]
    yields a spec structurally equal to [s] (modulo the [implies-else]
    sugar, which the parser desugars).  The printed token stream is also the
    input to the Token-Match metric, so formatting is deterministic. *)

val mult_to_string : Ast.mult -> string
val fmult_to_string : Ast.fmult -> string
val quant_to_string : Ast.quant -> string

val pp_expr : Format.formatter -> Ast.expr -> unit
val pp_fmla : Format.formatter -> Ast.fmla -> unit
val pp_spec : Format.formatter -> Ast.spec -> unit

(** {2 Declaration printers}

    The pieces {!pp_spec} prints a spec with, in its order: the module
    header, then each signature, fact, function, predicate and assertion,
    then a blank line and each command when there are commands.  Printing
    a spec's declarations one after the other with these on one formatter
    writes exactly the bytes of {!pp_spec}, so a caller can take per-
    declaration slices of one print.  Each piece ends with a newline. *)

val pp_sig : Format.formatter -> Ast.sig_decl -> unit
val pp_fact : Format.formatter -> Ast.fact_decl -> unit
val pp_fun : Format.formatter -> Ast.fun_decl -> unit
val pp_pred : Format.formatter -> Ast.pred_decl -> unit
val pp_assert : Format.formatter -> Ast.assert_decl -> unit
val pp_command : Format.formatter -> Ast.command -> unit

val expr_to_string : Ast.expr -> string
val fmla_to_string : Ast.fmla -> string
val spec_to_string : Ast.spec -> string

val source : Ast.spec -> string
(** Concrete Alloy 4.2 source.  Round-trip contract:
    [Parser.parse (source s)] is structurally equal to [s] for any
    parser-produced [s] (parse ∘ print ∘ parse is a fixpoint). *)
