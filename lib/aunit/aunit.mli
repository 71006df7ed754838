(** AUnit-style unit tests for Mini-Alloy specifications.

    A test pairs a concrete valuation (an {!Specrepair_alloy.Instance.t})
    with an expected verdict for a target — the conjunction of the spec's
    facts, a named predicate, or an arbitrary formula.  Valuations only
    mention signatures and fields, so a test applies to any candidate that
    declares them.  Mutation-based repairs keep the base's declarations;
    LLM candidates are re-parsed and may change them, in which case a
    missing relation makes the target raise and the test fail.

    Each test owns the evaluation memo of its valuation
    ({!Specrepair_alloy.Eval.memo}): a [Facts] target replays the verdicts
    a candidate shares with the specs the test already ran against.

    This is the oracle of the ARepair engine and the currency in which
    ICEBAR converts counterexamples into constraints. *)

module Alloy = Specrepair_alloy

type target =
  | Facts  (** all explicit facts and implicit constraints *)
  | Pred of string  (** a predicate, parameters existentially quantified *)
  | Fmla of Alloy.Ast.fmla

type test = private {
  test_name : string;
  valuation : Alloy.Instance.t;
  target : target;
  expect : bool;
  memo : Alloy.Eval.memo;  (** the valuation's memo *)
}

val make : name:string -> target:target -> expect:bool -> Alloy.Instance.t -> test
(** A test with a fresh memo for its valuation. *)

type verdict = { passing : test list; failing : test list }

val run_test : Alloy.Typecheck.env -> test -> bool
(** [true] when the target's evaluation matches [expect].  A test whose
    evaluation raises (e.g. the candidate spec deleted a predicate) counts
    as failing. *)

val run_suite : Alloy.Typecheck.env -> test list -> verdict

val all_pass : Alloy.Typecheck.env -> test list -> bool

val generate :
  ?session:Specrepair_engine.Session.t ->
  ?per_kind:int ->
  Alloy.Typecheck.env ->
  scope:Specrepair_solver.Bounds.scope ->
  test list
(** Derives a suite from a (presumed correct) specification: instances
    satisfying the facts become positive [Facts] tests, instances of the
    bare signature structure that violate the facts become negative ones,
    and for every predicate, instances where it holds (under the facts)
    become positive [Pred] tests.  [per_kind] bounds each group
    (default 4).  Generation is deterministic (solver enumeration order);
    with [?session] the enumerations run through the session oracle —
    memoized on the spec digest and identical to the unmemoized ones. *)

val of_counterexample : name:string -> Alloy.Instance.t -> test
(** ICEBAR-style conversion: the instance was a counterexample to a checked
    property; the resulting test demands that it no longer be admitted by
    the facts (target [Facts], expect [false]). *)
