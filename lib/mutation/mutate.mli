(** Mutation operators over specification constraint bodies.

    Mutations are the shared search space of the traditional repair tools
    (ARepair's greedy search, BeAFix's bounded-exhaustive search) and the
    fault-injection side of the benchmark generator.  Each mutation replaces
    the node at one location with a well-typed alternative. *)

module Ast = Specrepair_alloy.Ast

type t = {
  site : Location.site;
  path : Location.path;
  replacement : Location.node;
  op : string;  (** operator label, e.g. "binop-swap", for diagnostics *)
}

val pp : Format.formatter -> t -> unit

val apply : Ast.spec -> t -> Ast.spec
(** Raises [Not_found] / [Invalid_argument] on stale locations. *)

val mutations_at :
  Specrepair_alloy.Typecheck.env ->
  Ast.spec ->
  Location.site ->
  Location.path ->
  ?with_pool:bool ->
  unit ->
  t list
(** All single mutations of the node at the location.  [with_pool] (default
    false) additionally proposes replacement expressions and added juncts
    drawn from {!Pool}, which widens the space considerably. *)

val all_mutations :
  Specrepair_alloy.Typecheck.env ->
  Ast.spec ->
  ?sites:Location.site list ->
  ?with_pool:bool ->
  unit ->
  t list
(** Mutations at every node of the given sites (default: all sites), node
    by node.  One node can offer the same replacement twice (dropping
    either of two equal operands).  Mutations at different nodes never
    repeat each other, provided [sites] has no repeated site. *)

val candidates_by_node :
  Specrepair_alloy.Typecheck.env ->
  sites:Location.site list ->
  with_pool:bool ->
  (t list * (unit -> t list)) list
(** The mutations {!all_mutations} enumerates over [env.spec] ([env] its
    own typecheck result), one pair per node in the same order, with
    each node's repeated replacements dropped, the first kept: the
    node's structural edits, built now, and a thunk that builds its
    pool replacements ({!from_pool}), dropping any equal to one of the
    node's structural edits.  Every node offers its pool replacements
    after its structural edits, so the two parts concatenated are the
    node's mutations, repeats dropped.  The thunks share the
    replacement pools of one build. *)

val from_pool : t -> bool
(** Is the replacement drawn from {!Pool} (an [expr-replace] or an added
    junct) rather than a structural edit of the node? *)

val well_typed : Specrepair_alloy.Typecheck.env -> Ast.spec -> bool
(** Does the mutated spec still type-check?  ([apply] can produce arity
    violations only through pool replacements at positions whose expected
    arity depends on context; callers filter with this.) *)
