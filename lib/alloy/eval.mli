(** Direct evaluation of expressions and formulas over a ground instance.

    This is the semantic reference for the language: the bounded model
    finder is property-tested against it.  It is also the workhorse of the
    repair engines (AUnit test execution, candidate pruning against
    collected instances and counterexamples). *)

exception Eval_error of string

type bindings = (string * Instance.Tuple_set.t) list
(** Values of quantified variables and predicate parameters in scope.
    Innermost bindings first; names shadow the instance relations. *)

val expr :
  Typecheck.env -> Instance.t -> bindings -> Ast.expr -> Instance.Tuple_set.t
(** Value of an expression.  Raises {!Eval_error} on unknown names or
    arity violations that the type checker would reject. *)

val fmla : Typecheck.env -> Instance.t -> bindings -> Ast.fmla -> bool
(** Truth of a formula. *)

val facts_hold : Typecheck.env -> Instance.t -> bool
(** Do all explicit facts and all implicit constraints (signature
    hierarchy, multiplicities, field typing) hold in the instance?  The
    implicit constraints are decided first and, if they fail, no fact is
    evaluated; facts are then evaluated in order and the first false one
    decides.  Same as {!facts_hold_memo} on a fresh memo. *)

(** {2 Per-instance memo}

    Repair engines evaluate the facts of many candidates against the same
    collected instances, and a candidate differs from its base at one site.
    A memo belongs to one instance and replays what such a candidate shares
    with the candidates evaluated before it:

    - the verdict of the implicit constraints, keyed on the spec's [sigs]
      and [funs] (and its [preds], when a field column or function can call
      a predicate).  Lists are matched physically, then structurally, so a
      candidate re-parsed from text still hits;
    - the verdict of each fact body, keyed on the physical identity of the
      body and of the spec's [preds] and [funs] lists (a fact may call a
      predicate or apply a function).

    An {!Eval_error} is part of a verdict: it is memoized and raised again
    on replay.  Other exceptions are not memoized.  A memo holds at most 8
    implicit and 64 fact verdicts; a full table is cleared before the next
    insertion.  Whoever owns the instance owns its memo: an AUnit test, or
    a repair engine for the counterexamples and witnesses it collected. *)

type memo

val memo : ?counted:bool -> Instance.t -> memo
(** A fresh, empty memo for the instance.  With [~counted:false] its work
    is left out of {!counters}: the owner books it in its own schema. *)

val instance : memo -> Instance.t

val facts_hold_memo : Typecheck.env -> memo -> bool
(** {!facts_hold} on the memo's instance, replaying memoized verdicts.
    Returns (or raises) exactly what {!facts_hold} would. *)

val counters : unit -> Specrepair_json.Counters.t
(** Process-wide totals since start-up, schema ["eval"]: implicit-constraint
    conjunctions evaluated and their verdicts replayed, fact bodies
    evaluated and their verdicts replayed.  They only grow; sessions report
    their difference over a repair. *)

val pred_sat : Typecheck.env -> Instance.t -> Ast.pred_decl -> bool
(** Truth of a predicate whose parameters are existentially quantified over
    their bounds (the semantics of [run p]). *)
