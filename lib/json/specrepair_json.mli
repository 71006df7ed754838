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
val to_list : t -> t list option

val mem_str : string -> t -> string option
val mem_int : string -> t -> int option
val mem_num : string -> t -> float option
val mem_bool : string -> t -> bool option

(** {2 Named counters}

    The one counter type of the repository: every figure a layer counts
    (session telemetry, the oracle, the SAT work under it, the evaluator
    memo, the mutation-space store, the study scheduler, the serve daemon
    and its registry) is a key of a {!Counters.schema}, declared once in
    the module that counts it.  Snapshots, the session's deltas and the
    JSON objects telemetry, [status] and the scheduler line print are
    written once, here, for every schema. *)
module Counters : sig
  type json := t

  type kind =
    | Counter  (** monotone; {!since} subtracts its base *)
    | Gauge  (** a level or a high-water mark; {!since} reports it as is *)

  type schema
  (** A JSON object name plus its keys, in declaration order, which is
      the order {!to_json} prints them in. *)

  type key
  (** A slot of one schema.  Using a key on a set of another schema is a
      programming error the type does not catch. *)

  type t
  (** One value per key of a schema. *)

  val schema : string -> schema

  val counter : schema -> string -> key
  val gauge : schema -> string -> key
  (** Declare the next key.  Raises [Invalid_argument] on a name the schema
      already has, or once the schema has been {!create}d: declare every
      key at module initialization, next to the schema. *)

  val create : schema -> t
  (** A set of zeros. *)

  (** {3 Hot path} — one array store each, no allocation. *)

  val incr : t -> key -> unit
  val add : t -> key -> int -> unit
  val max : t -> key -> int -> unit
  (** [max t k n] raises [k] to [n] if [n] is larger. *)

  val set : t -> key -> int -> unit

  (** {3 Reading} *)

  val get : t -> key -> int

  val find : t -> string -> int
  (** By key name, for tests and the bench.  Raises [Not_found]. *)

  val copy : t -> t

  val since : base:t -> t -> t
  (** Counters minus [base]'s, gauges as they are in [t].  Raises
      [Invalid_argument] when [base] is of another schema. *)

  val name : t -> string
  (** The schema's name: the key its object is printed under. *)

  val bindings : t -> (string * kind * int) list
  (** In schema order. *)

  val fields : ?except:key list -> t -> (string * json) list
  (** The keys and their values as JSON fields, in schema order, leaving
      out [except]. *)

  val to_json : t -> json
  (** [Obj (fields t)]. *)
end
