(** The repository's one JSON codec.

    The repository deliberately carries no third-party JSON dependency, and
    this library depends on the standard library alone, so every layer can
    use it.  Everything the system writes as JSON goes through {!to_string}:
    serve replies, session telemetry and the study JSONL, diagnostics, the
    checkpoint manifest, fuzz summaries and the bench artifacts.
    Everything it reads goes through {!parse}: serve requests, the manifest,
    and the telemetry the learned portfolio mines.  The reader is strict
    (objects, arrays, strings with escapes, numbers, booleans and null;
    trailing garbage is an error), and its errors carry the byte offset at
    which parsing failed. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Fixed of int * float
      (** [Fixed (n, f)] prints [f] with exactly [n] decimals ([%.*f]), for
          timings and ratios whose printed precision is part of a schema.
          Never produced by {!parse}, which reads it back as [Num]. *)

val int : int -> t
(** [Num] of an integer. *)

val parse : string -> (t, int * string) result
(** Strict parse of exactly one JSON value (surrounding whitespace
    allowed; trailing garbage is an error).  [Error (pos, msg)] gives the
    0-based byte offset of the failure. *)

val to_string : t -> string
(** One line, no newlines: control characters in strings are escaped, so
    the result is safe for a newline-delimited protocol. *)

(** {2 Accessors} — all total, returning [None] on shape mismatch. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field {e or} non-object. *)

val to_str : t -> string option
val to_num : t -> float option
val to_int : t -> int option
val to_bool : t -> bool option
val to_list : t -> t list option

val mem_str : string -> t -> string option
val mem_int : string -> t -> int option
val mem_num : string -> t -> float option
val mem_bool : string -> t -> bool option
