(** The simulated large language model.

    A deterministic, seeded generative model over repair edits standing in
    for GPT-4 (no network access in this reproduction; see DESIGN.md).  It
    reproduces the behavioural properties the study depends on:

    - proposals are drawn from a pattern library (the well-typed mutation
      space) under a softmax whose weights combine per-operator priors,
      per-domain competence, and prompt-hint boosts;
    - Loc / Fix / Pass hints sharpen the distribution around the hinted
      location, operator class, or assertion-related constraints;
    - multi-round guidance (site boosts, blocklists, extra exploration)
      steers later rounds;
    - responses are prose-wrapped text that must be re-parsed, with a small
      malformed-output channel.

    All sampling comes from the caller's {!Rng.t}, so the whole study is
    reproducible. *)

module Alloy = Specrepair_alloy
module Mutation = Specrepair_mutation

type profile = {
  name : string;
  temperature : float;  (** higher = flatter sampling *)
  malformed_rate : float;  (** probability of an unparseable response *)
  compound_rate : float;  (** probability of proposing a two-edit fix *)
  self_check_samples : int;
      (** internal proposals the model can mentally verify per answer; 1
          disables best-of-k self-checking (weak reasoning) *)
  domain_competence : (string * float) list;  (** default 1.0 *)
  pattern_prior : (string * float) list;  (** by mutation-operator name *)
}

val gpt4 : profile
(** The profile used throughout the study. *)

val gpt35 : profile
(** A weaker profile (flatter sampling, more malformed output), matching
    the GPT-3.5 baselines the prior studies compared against. *)

val gemini : profile
(** Panel member with competence concentrated on ARepair's data-structure
    domains, low malformed rate, and a taste for compound/structural edits
    — complements {!llama3}. *)

val llama3 : profile
(** Panel member with competence concentrated on relational/graph domains,
    hot sampling and frequent truncation — complements {!gemini}. *)

val panel : profile list
(** The model panel, in presentation order: [gpt4; gpt35; gemini; llama3].
    Every profile selectable via [--profile] or the serve protocol is
    here. *)

val panel_names : string list

val profile_of_name : string -> profile option
(** Lookup by {!profile.name} in {!panel}. *)

type guidance = {
  site_boost : (Mutation.Location.site * float) list;
  op_boost : (string * float) list;
  blocked : Alloy.Ast.spec list;  (** refuted earlier proposals *)
  exploration : float;  (** added temperature from repeated failure *)
}

val no_guidance : guidance

val propose :
  profile ->
  rng:Rng.t ->
  hints:Prompt.hint list ->
  guidance ->
  Task.t ->
  Alloy.Ast.spec option
(** One sampled candidate repair (a well-typed spec different from the
    faulty one and from every blocked spec), or [None] when the model fails
    to produce one. *)

val proposer :
  ?spaces:Mutation.Space.store ->
  profile ->
  hints:Prompt.hint list ->
  guidance ->
  Task.t ->
  Rng.t ->
  Alloy.Ast.spec option
(** [proposer profile ~hints guidance task] builds the proposal
    distribution of one prompt and returns a sampler: each application to
    an [rng] is one {!propose} call.  Building reads no randomness, so k
    draws from one sampler consume [rng] exactly as k {!propose} calls
    do; a self-check loop builds once and draws k times.

    The task's mutation space (typecheck, pooled enumeration, replacement
    sizes) is looked up in [spaces] with {!Mutation.Space.find}, so
    prompts about a spec the store already holds, physically or
    structurally, skip the enumeration; the prompt's own weights are
    then one pass over the space.  The space is a function of the spec
    alone, so the draws, and the generator state after them, are those
    of a fresh store.  Without [?spaces] a fresh store is made for the
    call; the LLM pipelines pass their session's
    ({!Specrepair_engine.Session.spaces}). *)

val respond : profile -> rng:Rng.t -> guidance -> Prompt.t -> string
(** Full response text for a prompt: chatter + fenced candidate spec, or a
    deliberately malformed response on the malformed channel. *)

val render_response :
  profile -> rng:Rng.t -> Alloy.Ast.spec option -> string
(** Response text for an already-chosen proposal ([None] = the model gives
    up); used by the multi-round pipeline, which selects among several
    internal proposals before answering. *)

val rels_of_fmla : string list -> Alloy.Ast.fmla -> string list
(** Relation names mentioned in a formula (with duplicates), used by
    vocabulary-based feedback steering. *)
