(** A spec's pooled mutation space, kept for repeated proposal builds.

    The simulated LLM draws every proposal from the same space: the
    mutations {!Mutate.all_mutations} [~with_pool:true] enumerates over a
    well-typed spec.  That space depends on the spec alone (the typing
    environment it is built in is the spec's own typecheck result), so a
    {!store} can hand one build to every prompt about a structurally equal
    spec.  What a prompt adds on top (profile, hints, guidance) is weighed
    by the caller over {!t.mutations}.

    BeAFix's depth-1 candidate list is kept the same way: it depends on
    the spec, the swept sites and whether pool replacements are allowed,
    so a warm serve entry answers a repeated request from its store. *)

module Ast = Specrepair_alloy.Ast

type t = private {
  mutations : Mutate.t array;
      (** [Mutate.all_mutations env spec ~with_pool:true ()], in its order *)
  sizes : int array;
      (** [Location.node_size] of each mutation's replacement, by index *)
}

val build : Ast.spec -> t option
(** The space of a spec; [None] when the spec does not type-check or has
    no mutation. *)

(** {2 BeAFix's depth-1 candidate list} *)

type candidates
(** Every single mutation at every node of the swept sites, each node's
    repeated replacements dropped, the first kept
    ({!Mutate.candidates_by_node}): first the structural edits of every
    node, then the pool replacements ({!Mutate.from_pool}) of each node
    in turn, each part in enumeration order.  Cheap edits across every
    site come before any pool replacement, so one pool-heavy site cannot
    starve the rest of the budget.  The structural edits are built with
    the list; a node's pool replacements are built the first time a walk
    reaches them, and kept. *)

val to_seq : candidates -> Mutate.t Seq.t
(** The list, in order.  Reading past the structural edits builds each
    node's pool replacements as the walk reaches them. *)

val length : candidates -> int
(** The length of the whole list; builds every node's pool
    replacements. *)

val pools_built : candidates -> int
(** How many nodes' pool replacements have been built so far, for
    tests. *)

(** {2 Store} *)

type store
(** At most {!capacity} spaces, keyed on their spec, and at most
    {!capacity} candidate lists, keyed on their spec, sites and
    [with_pool]; in each, the least recently used is evicted first.  Not
    thread-safe; a store belongs to one session, one study domain (whose
    rows run one at a time in a process) or one serve registry entry,
    and dies with it. *)

val capacity : int
(** 2: a Single-Round row needs its faulty spec, a Multi-Round dialogue its
    faulty spec and the base it is hill-climbing.  A BeAFix request needs
    one list. *)

val create_store : unit -> store

val find : store -> Ast.spec -> t option
(** The space of [spec]: a stored entry whose spec is physically equal,
    else one whose spec is {!Ast.equal_spec}, else a new {!build} (stored
    even when [None], so an ill-typed spec is typechecked once).  Either
    way the entry becomes the most recently used. *)

val candidates :
  store ->
  Specrepair_alloy.Typecheck.env ->
  sites:Location.site list ->
  with_pool:bool ->
  candidates
(** BeAFix's depth-1 candidate list over [env.spec] ([env] its own
    typecheck result) at every node of [sites] (which must not repeat a
    site), looked up like {!find}: a stored list whose spec is
    physically equal to [env.spec], else {!Ast.equal_spec}, with equal
    [sites] and [with_pool], else a new list, stored.  A stored list
    keeps the pool replacements its walks have built, and only those. *)

val stats : store -> Specrepair_json.Counters.t
(** Lifetime counters, schema ["spaces"]: {!find} calls that built a space
    ([built]), {!find} calls answered from the store ([reused]) and spaces
    evicted at capacity ([evicted]), so [built + reused] is the number of
    {!find} calls; then {!candidates} calls that built a list
    ([lists_built]) and that were answered from the store
    ([lists_reused]). *)

val specs : store -> Ast.spec list
(** The stored entries' specs, most recently used first. *)
