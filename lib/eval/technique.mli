(** The twelve repair techniques of the study: four traditional tools, five
    Single-Round prompt settings, three Multi-Round feedback settings — the
    LLM-based eight parameterized by the {!Llm.Model.panel} profile that
    answers the prompts. *)

module Llm = Specrepair_llm

type t =
  | ARepair
  | ICEBAR
  | BeAFix
  | ATR
  | Single of Llm.Prompt.single_setting * Llm.Model.profile
  | Multi of Llm.Multi_round.feedback * Llm.Model.profile

val all : t list
(** In the paper's column order, with the default [gpt4] profile. *)

val traditional : t list

val llm_based : t list
(** The eight LLM techniques under the default [gpt4] profile. *)

val llm_for : Llm.Model.profile -> t list
(** The eight LLM techniques under a specific panel profile. *)

val profile_of : t -> Llm.Model.profile option
(** The panel profile of an LLM technique; [None] for traditional tools. *)

val name : t -> string
(** Column label as printed in the tables, e.g. "Single-Round_Loc+Fix".
    Non-default profiles are suffixed: "Multi-Round_Auto@gemini-pro". *)

val of_name : string -> t option
(** Inverse of {!name}, including "@<profile>"-suffixed labels. *)
