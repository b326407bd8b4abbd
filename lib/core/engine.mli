(** The reusable flow engine: a long-lived handle owning one
    characterization cache — an in-memory, mutex-guarded memo table
    backed (unless caching is off) by the persistent on-disk
    {!Disk_cache} store — through which any number of flow
    {!Flow.request}s run.

    Entries are content-addressed by {!Characterize.keyer} (member
    module subtree digests plus the configuration's
    {!Alice_config.Flow_config.characterize_digest}), loaded lazily one
    key at a time, and survive process boundaries, so fabric-parameter
    sweeps and repeated CLI invocations stop re-running CreateEFPGA on
    work they have already paid for. Results are bit-identical to a
    cold run; only the wall clock changes. Unusable entries (truncated,
    corrupt, version-mismatched) recompute with a [W0702] warning on
    the affected run; an unwritable store warns once ([W0703]) and
    stops writing. *)

module C = Alice_config
module D = Alice_diag.Diag

(** The selection-scoring seam ({!Selection.Scorer}), re-exported so
    library users can pick {!Selection.Scorer.Heuristic} vs
    {!Selection.Scorer.Measured} and own verdict caches without
    reaching into [lib/core] internals. *)
module Scorer = Selection.Scorer

type t

(** [create ?cache ?cache_dir ?max_bytes ?faults ()]. With [cache]
    (default [true]) the memo table is backed by the {!Disk_cache} store
    rooted at [cache_dir] (default {!Disk_cache.default_root}), bounded
    to [max_bytes] with LRU eviction when given; with [~cache:false] the
    engine is purely in-memory — still worth holding across runs, just
    not across processes. [faults] (default
    {!Alice_fault.Fault.global}) threads the fault-injection plan into
    the store and the engine's own sweep checkpointing. *)
val create :
  ?cache:bool -> ?cache_dir:string -> ?max_bytes:int ->
  ?faults:Alice_fault.Fault.t -> unit -> t

(** An engine honoring the configuration's [cache] / [cache_dir] /
    [cache_max_bytes] knobs and [fault_plan]. *)
val of_config : C.Flow_config.t -> t

(** Run one request through the engine's cache. Per-run cache
    accounting is on the result's [char_stats]; cache-degradation
    warnings land on the run's diagnostics.

    Not safe for overlapping calls from several threads: the
    disk-store warning sink is swapped around each run, so concurrent
    runs would misattribute (or drop) each other's warnings. Serve
    concurrent traffic with {!run_shared} instead. *)
val run : t -> Flow.request -> Flow.t

(** Like {!run}, but the disk store's warning sink is left alone, so
    any number of threads may run requests through one engine
    concurrently (the memo table and disk store are mutex-guarded).
    Cache-degradation warnings go to the engine-wide sink installed
    with {!set_warning_sink} — attribution to a single request is
    impossible once loads happen on behalf of whichever request reaches
    a key first, so they become engine-level events (the server counts
    them in its metrics). Everything else — per-request diagnostics,
    [char_stats], results — is identical to {!run}. *)
val run_shared : t -> Flow.request -> Flow.t

(** Install a persistent engine-wide sink for cache-degradation
    warnings ([W0702]/[W0703]) raised by {!run_shared} callers. The
    sink must be safe to call from any domain; it replaces any
    previously installed sink. No-op when caching is off. *)
val set_warning_sink : t -> (D.t -> unit) -> unit

(** Root directory of the persistent store; [None] when caching is
    off. *)
val cache_root : t -> string option

(** Cumulative persistent-store counters since [create]; [None] when
    caching is off. *)
val disk_stats : t -> Disk_cache.stats option

(** Garbage-collect the persistent store: validate every entry,
    quarantine corruption, evict least-recently-used entries to
    [max_bytes] (default: the engine's configured budget), and
    re-enable writes after a [W0703] write-disable. [None] when caching
    is off. Safe to call on a live engine — concurrent loads degrade to
    misses at worst. *)
val gc : ?max_bytes:int -> t -> Disk_cache.gc_stats option

(** The advisor's objective vector for one solved point, read off the
    selected solution: total area of the chosen fabrics, the slowest
    fabric's critical path, and the security score on the configured
    score mode's own scale — Eq. 1 total score for [Heuristic], mean
    measured attack resilience in \[0,1\] for [Measured]. *)
type point_metrics = {
  pm_area_um2 : float;
  pm_timing_ns : float;
  pm_security : float;
  pm_security_mode : C.Flow_config.score_mode;
      (** which scale [pm_security] is on *)
}

(** One sweep row: the marshalable summary of a completed flow that the
    checkpoint store persists — everything the sweep table and server
    sweep response report, but not the full {!Flow.t}. *)
type sweep_point = {
  sp_name : string;          (** the sweep entry's label *)
  sp_feasible : bool;        (** a best solution exists *)
  sp_fabrics : string option;(** "+"-joined fabric size labels of best *)
  sp_metrics : point_metrics option;
      (** objectives of the best solution; [None] when infeasible *)
  sp_hits : int;             (** characterization cache hits *)
  sp_computed : int;
  sp_skipped : int;          (** deadline skips *)
  sp_attacks_run : int;      (** measured-selection attacks computed *)
  sp_attacks_cached : int;   (** verdicts served from the attack cache *)
  sp_attacks_inconclusive : int;
  sp_times : Flow.phase_times;
  sp_diags : D.t list;
  sp_resumed : bool;         (** served from a checkpoint, not computed *)
}

(** A point's diagnostics, each tagged with the point's name as its
    ["config"] context — how [sweep], [advise] and the server report
    them. *)
val point_diags : sweep_point -> D.t list

(** The fabric label {!sweep_point.sp_fabrics} reports, for callers
    holding a full {!Flow.t}. *)
val solution_fabrics : Flow.t -> string option

(** [run_sweep t points] runs named requests sequentially through the
    engine's cache like {!run}, but checkpoints each point's
    summary into the persistent store the moment it completes: a sweep
    killed after [k] of [n] points (even with SIGKILL) resumes on rerun
    by serving those [k] summaries back — marked [sp_resumed] — and
    computing exactly the remaining [n - k]. A point's checkpoint key
    digests its name, configuration and source, so editing the sweep
    never reuses a stale row. [~resume:false] recomputes everything
    (checkpoints are still written). [~shared] selects {!run_shared}
    semantics for the underlying runs (servers); the default is {!run}.
    With caching off there are no checkpoints and this degrades to
    {!run} on each point plus summarization. [~on_point] observes each point
    (resumed or computed) the moment it is available — strictly AFTER
    its checkpoint is written. That ordering is a contract streaming
    consumers build on: a crash between computing a point and
    delivering its row leaves the point either checkpointed (the rerun
    resumes it and re-delivers the row) or not (the rerun recomputes it
    and delivers the row) — a lost row is always recomputed or
    re-delivered, never silently skipped on resume. Likewise an
    observer that raises (a streaming client that hung up) aborts the
    remaining points while every completed one stays resumable.

    All points share this engine's characterization memo and its attack
    verdict pool: entries whose configurations differ only in knobs
    outside {!C.Flow_config.attack_digest} — [attack_area_weight],
    [score_mode], [attack_jobs] — re-rank cached verdicts without
    re-running any attack. *)
val run_sweep :
  ?shared:bool -> ?resume:bool -> ?on_point:(sweep_point -> unit) -> t ->
  (string * Flow.request) list -> sweep_point list
