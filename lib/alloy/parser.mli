(** Recursive-descent parser for Alloy 4.2 concrete syntax.

    Built on the position-carrying {!Lexer}; produces the located
    {!Surface} AST, or (via {!Elab}) the kernel {!Ast.t} directly.
    Operator precedence follows Alloy: negation binds tightest, then
    [&&], then [=>]/[implies] (right-associative, with optional [else]),
    then [<=>], then [||]; quantifier bodies extend as far right as
    possible.

    All entry points raise {!Diagnostic.Error} with a positioned message
    on malformed input; [file] (default ["<string>"]) names the source
    in spans. *)

val parse_surface : ?file:string -> string -> Surface.spec
(** Parses a complete specification to the located surface AST. *)

val parse : ?file:string -> string -> Ast.spec
(** [Elab.spec] composed over {!parse_surface}, discarding warnings.
    Use {!Frontend.check} when warnings or declaration spans matter. *)

val parse_fmla : ?file:string -> string -> Ast.fmla
(** Parses a single formula (used by tests and by the LLM response
    extractor). *)

val parse_expr : ?file:string -> string -> Ast.expr
(** Parses a single relational expression. *)
