(** Materialisation of the two benchmarks: 1,936 Alloy4Fun variants and 38
    ARepair variants, each a faulty specification paired with its ground
    truth and fault metadata.  Deterministic in the study seed. *)

module Alloy = Specrepair_alloy
module Llm = Specrepair_llm

type variant = {
  id : string;  (** e.g. "classroom_0017" *)
  domain : Domains.t;
  ground_truth : Alloy.Ast.spec;
  injected : Fault.injected;
}

val variants : ?seed:int -> Domains.t -> variant list
(** The domain's [count] variants (memoized per [(seed, domain)]). *)

val variant_at : ?seed:int -> Domains.t -> int -> variant
(** The [index]-th variant of a domain, derived on demand and never
    cached: the building block of streaming corpus producers, which must
    stay O(1)-memory no matter how many variants they touch.  For
    [index < count] this is bit-identical to the corresponding element of
    {!variants}; larger indices extend the domain beyond its Table I
    size (same deterministic derivation, fresh fault streams). *)

val all : ?seed:int -> unit -> variant list
(** Both benchmarks; 1,974 variants at the default seed (42). *)

val sample : ?seed:int -> per_domain:int -> unit -> variant list
(** A stratified subsample (first [per_domain] variants of each domain),
    for quick evaluation runs. *)

val to_task : variant -> Llm.Task.t
(** Package a variant for the LLM pipelines, exposing the hint metadata. *)
