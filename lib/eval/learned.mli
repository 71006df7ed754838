(** Telemetry-learned technique statistics for the hybrid portfolio.

    Mines the session telemetry JSONL (and study CSVs) accumulated since
    the engine gained telemetry into per-(defect-class × technique)
    success/cost cells.  {!Portfolio.repair_learned} ranks techniques for
    a task's defect class by expected value per millisecond and races the
    top of the ranking under one session deadline; with no statistics for
    the class it falls back — explicitly, and bit-identically — to the
    static two-stage pipeline.

    {b Trust.}  A stats file steers which repair engines run at all, so
    persistence carries an integrity digest and {!load} raises
    {!Corrupt_stats} on any tampering or structural damage — a damaged
    file must never silently reorder the portfolio. *)

module Llm = Specrepair_llm

exception Corrupt_stats of string

type cell = {
  attempts : int;
  successes : int;  (** rows whose technique repaired (REP for CSVs) *)
  total_ms : float;  (** summed wall-clock of the attempts *)
}

type t
(** Mutable accumulator keyed on (defect class, technique label). *)

val empty : unit -> t
val is_empty : t -> bool

val observe :
  t ->
  defect_class:string ->
  technique:string ->
  repaired:bool ->
  time_ms:float ->
  unit

val cell : t -> defect_class:string -> technique:string -> cell option

val cells : t -> (string * string * cell) list
(** Sorted (class, technique, cell) triples — the persisted payload. *)

val defect_class_of_task : Llm.Task.t -> string
(** The {!Specrepair_benchmarks.Fault} taxonomy label for a repair task:
    ["compound"] when more than one fault path is carried, else the class
    of the reverting operator, else ["unknown"]. *)

val class_of_variant_id : string -> string
(** Re-derives the injected fault's class from a benchmark variant id
    (memoized); ["unknown"] for foreign ids. *)

val add_telemetry_line : t -> string -> unit
(** Folds one telemetry JSONL line in; non-study lines (scheduler
    summaries, serve events) and lines that are not one JSON value (a
    torn final line) are ignored. *)

val of_telemetry_file : string -> t

val add_rows : t -> Study.spec_result list -> unit
(** Study CSV rows; success is [rep = 1]. *)

val of_csv_file : string -> t
(** {!Study.of_csv} of the file, folded with {!add_rows}. *)

val save : t -> string -> unit
(** Atomic write (temp + rename) of the digest-protected text format
    documented in DESIGN.md. *)

val load : string -> t
(** Raises {!Corrupt_stats} on a missing/unreadable file, a bad header, a
    malformed row, inconsistent counts, or a digest mismatch. *)

val score : cell -> float
(** Laplace-smoothed success rate divided by mean cost (ms, floored at
    1): the expected-value-per-millisecond ordering key. *)

val rank :
  t -> defect_class:string -> Technique.t list -> (Technique.t * float) list
(** The given techniques with statistics for the class, best first;
    deterministic tie-break on the technique label.  Empty when the class
    was never observed — the cold-start signal. *)
