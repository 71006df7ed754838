(** The checkpoint manifest of a streamed study run.

    A run directory holds one [manifest.json] plus one result shard per
    completed chunk ([shard_<lo>_<hi>.res], half-open row ranges).  The
    manifest is the single source of truth for what is done: a range is
    recorded only {e after} its shard has been atomically renamed into
    place and cross-checked, and the manifest itself is replaced by an
    atomic write-then-rename — so at every instant the directory is
    either the old checkpoint or the new one, never a torn mix.

    Trust story: on [--resume] the manifest must parse exactly
    (version, fingerprint, total, sorted disjoint ranges) {e and} every
    recorded range must still have a parseable shard with the right
    rows.  Any deviation raises {!Corrupt} naming the problem: a
    checkpoint we cannot fully vouch for is an error the operator must
    see, never a silent re-run (wasting the night) or a silent skip
    (publishing a CSV with holes). *)

type t = {
  fingerprint : string;
      (** identifies the run's parameters (corpus source, seed, total,
          techniques, solving options); a resume under different
          parameters must not mix rows *)
  total : int;  (** the run's row count; ranges live in [\[0, total)] *)
  completed : (int * int) list;
      (** sorted, disjoint half-open ranges, one per shard file *)
}

exception Corrupt of string
(** The manifest (or a shard it vouches for) cannot be trusted; the
    payload says exactly why and names the offending file. *)

val path : dir:string -> string
(** [dir/manifest.json]. *)

val create : fingerprint:string -> total:int -> t

val load : dir:string -> t
(** Strict parse of [manifest.json].  Raises {!Corrupt} on unreadable or
    truncated files (the message of a syntax error carries its byte
    offset), unknown versions, missing fields, malformed ranges (unsorted,
    overlapping, out of bounds) — anything short of a checkpoint this
    module itself would have written: the file must be byte for byte the
    {!to_json} of the manifest it decodes to, plus at most one newline. *)

val save : dir:string -> t -> unit
(** Atomic replace: serialize to [manifest.json.tmp], then rename over
    [manifest.json]. *)

val add : t -> lo:int -> hi:int -> t
(** Record [\[lo, hi)] as completed.  Ranges are kept sorted and exactly
    as recorded (never coalesced), so each entry names its shard file
    [shard_<lo>_<hi>.res] on disk.  Overlap is [Invalid_argument]. *)

val rows_done : t -> int
val is_complete : t -> bool

val pending : t -> (int * int) list
(** The complement of [completed] in [\[0, total)], sorted. *)

val to_json : t -> string
(** One-line JSON; what {!save} writes and {!load} parses. *)
