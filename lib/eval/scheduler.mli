(** A dynamic, fault-tolerant work scheduler over forked worker processes.

    The parent keeps a chunked queue of work-item indices; workers pull
    chunks over a per-worker pipe, evaluate each item, and publish every
    finished chunk as an atomically-renamed result file.  Slow chunks no
    longer pin a static slice to one worker (chunk sizes shrink as the
    queue drains, so stragglers even out), and a worker that dies — crash,
    [kill -9], or a silent heartbeat — costs one chunk of recompute, not
    the run: the parent requeues the dead worker's in-flight chunk (with a
    bounded retry count) and respawns a replacement.

    Protocol, heartbeat and retry semantics are documented in DESIGN.md
    ("The work-stealing study scheduler"). *)

type stats = Specrepair_json.Counters.t
(** The counters of one run (the parent's view of the work queue), schema
    ["scheduler"]: chunks dispatched (requeues included) and completed,
    rows completed, retries, workers spawned (respawns included) and lost,
    and heartbeat kills.  They belong to the whole run, not to one
    session; a study prints them as its final [{"scheduler":…}] line. *)

val rows_completed : Specrepair_json.Counters.key
val chunks_completed : Specrepair_json.Counters.key
val retries : Specrepair_json.Counters.key
val workers_lost : Specrepair_json.Counters.key

exception Chunk_failed of { indices : int list; attempts : int; reason : string }
(** A chunk exhausted its retry budget ([indices] are the work items it
    carried), or a worker reported a deterministic evaluation error. *)

val map_checkpointed :
  jobs:int ->
  ?max_retries:int ->
  ?heartbeat_timeout_ms:float ->
  ?progress:(string -> unit) ->
  ?emit:(string -> unit) ->
  ?resume:bool ->
  dir:string ->
  fingerprint:string ->
  f:(emit:(string -> unit) -> int -> string) ->
  int ->
  stats
(** [map_checkpointed ~jobs ~dir ~fingerprint ~f n] evaluates [f i] for
    every [i < n] across [jobs] forked workers, plus the scheduler's
    counters.  [f] runs in the worker process; it must return a single
    line (no ['\n']) and may call its [emit] argument with sideband lines
    (telemetry) that the parent forwards to [?emit] when the chunk is
    merged.  [f] must be deterministic: a retried chunk re-evaluates its
    items from scratch.

    [?max_retries] (default 2) bounds requeues per chunk; exhausting it
    raises {!Chunk_failed} naming the offending work items.
    [?heartbeat_timeout_ms] (default 300_000) is how long a worker may go
    without finishing an item before the parent presumes it hung and
    kills it.  [jobs] is clamped to the pending rows; [jobs <= 1] still
    forks (use the caller's sequential path to avoid forking entirely).

    Results never enter parent memory.  Each verified chunk is kept as a
    result shard [shard_<lo>_<hi>.res] in [dir] and its range recorded in
    the atomically-replaced checkpoint manifest [dir/manifest.json]
    ({!Manifest}) — shard rename first, manifest second, so the manifest
    only ever vouches for shards that exist.  Parent memory is O(jobs +
    pending ranges) whatever [n].  [dir] is created if absent and never
    removed: it is the caller's.

    With [~resume:true] the manifest is loaded, validated against
    [fingerprint] and [n], every recorded shard re-checked, and only the
    pending complement computed; a truncated or tampered checkpoint
    raises {!Manifest.Corrupt} (never a silent re-run or skip).  Without
    [~resume], a directory already holding a non-empty checkpoint is
    refused.  Progress lines carry this run's rows/s and an ETA.  Read
    the rows back with {!fold_shards}. *)

val fold_shards : dir:string -> ('a -> int -> string -> 'a) -> 'a -> 'a
(** [fold_shards ~dir f acc] streams every result row of a {e complete}
    checkpointed run to [f] in global row order, one shard in memory at
    a time (the lazy merge).  Fails if the run is incomplete; raises
    {!Manifest.Corrupt} if the checkpoint cannot be trusted. *)
