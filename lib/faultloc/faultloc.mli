(** Fault localization for Mini-Alloy specifications.

    Two rankers over formula-node locations:

    - {!rank_by_tests} (ARepair-style) scores a node by how many failing
      AUnit tests flip to passing when the node is {e relaxed} — replaced by
      the constant [true] or [false] — discounted by the passing tests it
      breaks.

    - {!rank_by_instances} (FLACK-style) scores a node by its {e relevance}
      to counterexamples versus satisfying instances: a node whose
      relaxation changes the admission of counterexamples but not of valid
      instances is likely at fault.

    Both return locations best-first; ties break towards smaller subtrees
    (more precise repairs) and earlier positions. *)

module Alloy = Specrepair_alloy
module Mutation = Specrepair_mutation

type location = {
  site : Mutation.Location.site;
  path : Mutation.Location.path;
  score : float;
}

val candidate_locations :
  Alloy.Ast.spec ->
  sites:Mutation.Location.site list ->
  (Mutation.Location.site * Mutation.Location.path) list
(** Formula-valued nodes of the given sites (constants excluded). *)

val rank_by_tests :
  Alloy.Typecheck.env ->
  Specrepair_aunit.Aunit.test list ->
  ?sites:Mutation.Location.site list ->
  unit ->
  location list

val rank_by_instances :
  Alloy.Typecheck.env ->
  goal_of:(Alloy.Typecheck.env -> Alloy.Ast.fmla) ->
  counterexamples:Alloy.Instance.t list ->
  witnesses:Alloy.Instance.t list ->
  ?sites:Mutation.Location.site list ->
  unit ->
  location list
(** [goal_of env] is the formula whose truth classifies the instances
    (typically the negated body of a checked assertion, {!goal_of_assert}):
    counterexamples satisfy facts and the goal; witnesses satisfy facts and
    its negation.  The goal is recomputed against every relaxed candidate
    spec, so faults inside assertion bodies are rankable too. *)

val goal_of_assert : string -> Alloy.Typecheck.env -> Alloy.Ast.fmla
(** The negated body of the named assertion in the given spec (or [True]
    when absent). *)
