(** The study runner: applies every technique to every benchmark variant
    and records REP / TM / SM per (variant, technique) — the raw data
    behind all tables and figures.

    Every (variant, technique) row runs in its own
    {!Specrepair_repair.Session.t} (shared per-domain oracle, per-technique
    budget, monotonic [time_ms]); [?deadline_ms] bounds each row and
    [?telemetry] receives one JSON line per row (schema in DESIGN.md),
    whose [elapsed_ms] is the row's [time_ms]: both stop before REP / TM /
    SM scoring — the CSV schema itself never changes.  REP takes its
    verdicts from the row's domain oracle, at the row's conflict budget,
    after the telemetry line has been built, so the line's oracle counters
    are the technique's alone. *)

module Alloy = Specrepair_alloy
module Benchmarks = Specrepair_benchmarks

type spec_result = {
  variant_id : string;
  domain : string;
  benchmark : Benchmarks.Domains.benchmark;
  technique : string;
  rep : int;  (** 1 = command outcomes match the ground truth *)
  tm : float;  (** Token Match of the final candidate vs ground truth *)
  sm : float;  (** Syntax Match of the final candidate vs ground truth *)
  tool_claimed : bool;  (** the technique's own success verdict *)
  time_ms : float;  (** monotonic wall clock of the technique run *)
}

val run_one :
  ?seed:int ->
  ?budget:Specrepair_repair.Common.budget ->
  ?deadline_ms:float ->
  ?telemetry:(string -> unit) ->
  Technique.t ->
  Benchmarks.Generate.variant ->
  spec_result

val run :
  ?seed:int ->
  ?budget:Specrepair_repair.Common.budget ->
  ?deadline_ms:float ->
  ?telemetry:(string -> unit) ->
  ?techniques:Technique.t list ->
  ?jobs:int ->
  ?max_retries:int ->
  ?on_stats:(Scheduler.stats -> unit) ->
  ?progress:(string -> unit) ->
  Benchmarks.Generate.variant list ->
  spec_result list
(** Row-major: every technique applied to every variant, each row on its
    domain's shared oracle.  [jobs] (default 1) runs in this process.
    [jobs > 1] is {!run_stream} over the list: the rows fan out over
    forked workers through the checkpointed {!Scheduler} into a scratch
    run directory, come back through the same verified merge as
    {!read_stream}, and the directory is removed on success and on
    failure.  A dead worker's in-flight chunk is requeued up to
    [?max_retries] (default 2) times before {!Scheduler.Chunk_failed}
    names the offending rows.  Results come back in the sequential
    run's order, so the CSV is byte-identical to [jobs = 1] except for
    the wall-clock [time_ms] column.  Worker telemetry lines are
    replayed into [?telemetry] as each chunk is merged (every row
    exactly once), followed by one final [{"scheduler":…}] summary line;
    [?on_stats] receives the scheduler's counters. *)

val run_stream :
  ?seed:int ->
  ?budget:Specrepair_repair.Common.budget ->
  ?deadline_ms:float ->
  ?telemetry:(string -> unit) ->
  ?techniques:Technique.t list ->
  ?jobs:int ->
  ?max_retries:int ->
  ?on_stats:(Scheduler.stats -> unit) ->
  ?progress:(string -> unit) ->
  ?source:Corpus_stream.source ->
  ?resume:bool ->
  dir:string ->
  total:int ->
  unit ->
  Scheduler.stats
(** The streaming study: [total] corpus variants ({!Corpus_stream},
    derived on demand in the workers — indices past the natural corpus
    wrap into fresh epochs) times the technique list, checkpointed into
    [dir] through {!Scheduler.map_checkpointed}.  Memory is O(chunk)
    regardless of [total]; a crashed or [kill -9]ed run restarts with
    [~resume:true] and recomputes only the manifest's pending complement.
    The checkpoint fingerprint covers source, seed, total and techniques,
    so a resume under different parameters is rejected
    ({!Manifest.Corrupt}).  Progress lines carry rows/s and an ETA; rows
    stream back with {!write_stream_csv} or {!read_stream}. *)

val write_stream_csv : ?timings:bool -> dir:string -> out_channel -> int
(** Lazily merge a {e complete} streamed run into one CSV (header plus
    rows in corpus order, one shard in memory at a time); returns the row
    count.  The output is byte-identical to {!to_csv} of the equivalent
    in-memory run modulo the wall-clock [time_ms] column —
    [~timings:false] zeroes it on both sides, making the equality exact.
    Fails loudly on an incomplete run; raises {!Manifest.Corrupt} on an
    untrustworthy checkpoint. *)

val read_stream : dir:string -> spec_result list
(** The rows of a {e complete} streamed run in corpus order, through the
    same verified merge as {!write_stream_csv}: an unparsable row raises
    {!Manifest.Corrupt}. *)

val to_csv : ?timings:bool -> spec_result list -> string
(** [~timings:false] zeroes the wall-clock [time_ms] column, yielding
    byte-stable output for run-to-run comparisons (default [true]). *)

val of_csv : string -> spec_result list
(** Round-trips {!to_csv}; used to cache study runs on disk.  Blank lines
    and repeated headers are skipped; any other malformed line raises
    [Failure] naming the offending row (a truncated cache must fail
    loudly, not shed rows). *)

val aunit_suite : Benchmarks.Domains.t -> Specrepair_aunit.Aunit.test list
(** The domain's test suite, generated from the ground truth (memoized);
    shared by ARepair and ICEBAR, as the benchmark ships one suite per
    problem. *)
