(** Generate-on-demand study corpora.

    The materialized corpus ({!Specrepair_benchmarks.Generate.all}) holds
    every variant in memory, which caps studies at Table I scale.  This
    module maps a {e global row index} to a variant derived on demand, so
    a million-variant corpus is an integer range, not a list: a streamed
    run touches O(chunk) variants at a time no matter the total.

    The [Injected] source drives the seeded fault injector
    ({!Specrepair_benchmarks.Fault.inject}).  Index [i] of epoch 0
    ([i < natural_total]) is bit-identical to element [i] of
    [Generate.all ~seed ()]; beyond that the corpus wraps into fresh
    epochs — the same domain cycle with new deterministic fault streams
    — so any total is well-defined.

    A [Custom] source plugs in any other deterministic producer; the
    fuzz library wires its spec generators in this way
    ({!Specrepair_fuzz.Stream_source}), keeping this module free of a
    dependency cycle with the fuzzer. *)

module Benchmarks = Specrepair_benchmarks

type source =
  | Injected
      (** the paper's benchmark corpus, extended past Table I by epochs *)
  | Custom of {
      name : string;  (** stable label; part of the run fingerprint *)
      produce : seed:int -> int -> Benchmarks.Generate.variant;
          (** must be deterministic in [(seed, index)] and O(1)-memory *)
    }

val source_name : source -> string

val natural_total : unit -> int
(** Rows in one epoch of the [Injected] source (1,974: Table I). *)

val variant : ?source:source -> seed:int -> int -> Benchmarks.Generate.variant
(** The variant at a global index.  Deterministic in
    [(source, seed, index)]; derived on every call, never cached. *)

val of_variants : name:string -> Benchmarks.Generate.variant list -> source
(** A [Custom] source over a materialized list: index [i] is its [i]-th
    element (the seed is the list's, not the source's).  [name] must
    identify the list — it is all the run fingerprint sees of it. *)

val iter :
  ?source:source ->
  seed:int ->
  lo:int ->
  hi:int ->
  (int -> Benchmarks.Generate.variant -> unit) ->
  unit
(** [iter ~seed ~lo ~hi f] applies [f i (variant i)] for [lo <= i < hi],
    one variant live at a time. *)

val fingerprint :
  source:source -> seed:int -> total:int -> options:string list -> string
(** The run-parameter fingerprint stored in the checkpoint manifest:
    resuming under a different corpus, seed, total or option set must be
    rejected rather than mix rows.  [options] carries run-level knobs
    (technique list, solving options) in a stable order. *)
