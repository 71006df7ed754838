(** A spec's pooled mutation space, kept for repeated proposal builds.

    The simulated LLM draws every proposal from the same space: the
    mutations {!Mutate.all_mutations} [~with_pool:true] enumerates over a
    well-typed spec.  That space depends on the spec alone (the typing
    environment it is built in is the spec's own typecheck result), so a
    {!store} can hand one build to every prompt about a structurally equal
    spec.  What a prompt adds on top (profile, hints, guidance) is weighed
    by the caller over {!t.mutations}. *)

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

(** {2 Store} *)

type store
(** At most {!capacity} spaces, keyed on their spec, least recently used
    evicted first.  Not thread-safe; a store belongs to one session (or one
    study domain, whose rows run one at a time in a process). *)

val capacity : int
(** 2: a Single-Round row needs its faulty spec, a Multi-Round dialogue its
    faulty spec and the base it is hill-climbing. *)

val create_store : unit -> store

val find : store -> Ast.spec -> t option
(** The space of [spec]: a stored entry whose spec is physically equal,
    else one whose spec is {!Ast.equal_spec}, else a new {!build} (stored
    even when [None], so an ill-typed spec is typechecked once).  Either
    way the entry becomes the most recently used. *)

type stats = { built : int; reused : int; evicted : int }
(** Lifetime counters: {!find} calls that built a space, {!find} calls
    answered from the store, and entries evicted at capacity.
    [built + reused] is the number of {!find} calls. *)

val stats : store -> stats

val specs : store -> Ast.spec list
(** The stored entries' specs, most recently used first. *)
