(** The reusable flow engine: a long-lived handle owning the
    characterization memo and the attack-verdict memo — mutex-guarded
    tables that every run resolves through
    {!Alice_parallel.Memo.resolve} — backed (unless caching is off) by
    one {!Disk_cache} store that holds characterizations, attack
    verdicts and per-point sweep checkpoints side by side, told apart
    by their keys' prefixes. Any number of flow {!Flow.request}s run
    through one engine with one {!run}.

    Entries are content-addressed by {!Characterize.keyer} (the member
    modules in cluster order with their subtree digests, plus a digest
    of the configuration fields characterization reads), loaded lazily one key at a time, and
    survive process boundaries, so fabric-parameter sweeps and repeated
    CLI invocations stop re-running CreateEFPGA on work they have
    already paid for. Results are bit-identical to a
    cold run; only the wall clock changes. Unusable entries (truncated,
    corrupt, version-mismatched) recompute with a [W0702] warning and
    an unwritable store warns once ([W0703]) and stops writing; both
    land on the affected run's diagnostics, or on the engine-wide sink
    once {!set_warning_sink} installed one. *)

module C = Alice_config
module D = Alice_diag.Diag

(** The selection-scoring seam ({!Selection.Scorer}), re-exported so
    library users can pick {!Selection.Scorer.Heuristic} vs
    {!Selection.Scorer.Measured} and own verdict caches without
    reaching into [lib/core] internals. *)
module Scorer = Selection.Scorer

type t

(** [create ?cache ?cache_dir ?max_bytes ?faults ()]. With [cache]
    (default [true]) both memo tables and the sweep checkpoints are
    backed by the {!Disk_cache} store rooted at [cache_dir] (default
    {!Disk_cache.default_root}), whose every entry counts against
    [max_bytes] when given (LRU eviction); with [~cache:false] the
    engine is purely in-memory — still worth holding across runs, just
    not across processes. [faults] (default
    {!Alice_fault.Fault.global}) threads the fault-injection plan into
    the store and the engine's own sweep checkpointing. *)
val create :
  ?cache:bool -> ?cache_dir:string -> ?max_bytes:int ->
  ?faults:Alice_fault.Fault.t -> unit -> t

(** An engine honoring the configuration's [cache] / [cache_dir] /
    [cache_max_bytes] knobs, under {!Alice_fault.Fault.global} (the
    [$ALICE_FAULT_PLAN] plan); {!create}'s [~faults] arms any other. *)
val of_config : C.Flow_config.t -> t

(** Run one request through the engine's caches; per-run cache
    accounting is on the result's [char_stats].

    Warning routing: until {!set_warning_sink} is called, the store
    warns ([W0702]/[W0703]) into the request's collector while it runs,
    so overlapping calls would misattribute each other's warnings. Once
    an engine-wide sink is installed the store's sink is left alone,
    any number of threads may call [run] at once, and the warnings go to
    that sink: a load made for whichever request reached a key first
    belongs to no single request. *)
val run : t -> Flow.request -> Flow.t

(** Install an engine-wide sink for the store's warnings and switch
    {!run} and {!run_sweep} to leave the store's sink alone;
    call it before serving concurrent requests. The sink must be safe to
    call from any domain and replaces any earlier one. *)
val set_warning_sink : t -> (D.t -> unit) -> unit

(** Root directory of the persistent store; [None] when caching is
    off. *)
val cache_root : t -> string option

(** Cumulative persistent-store counters since [create], over every
    kind of entry; [None] when caching is off. *)
val disk_stats : t -> Disk_cache.stats option

(** Cumulative hits and computations of each in-memory
    characterization stage since [create] (see {!Characterize.cache}):
    where a sweep's or an advise grid's reuse across points lands. *)
val stage_stats : t -> Characterize.stage_stats list

(** Garbage-collect the persistent store ({!Disk_cache.gc}): validate
    every entry, quarantine corruption, evict least-recently-used
    entries to [max_bytes] (default: the engine's configured budget),
    and re-enable writes after a [W0703] write-disable. [None] when
    caching is off. Safe to call on a live engine — concurrent loads
    degrade to misses at worst. *)
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

(** The four-key object [advise] reports and the server's sweep and
    advise rows carry as ["metrics"]; [null] for an infeasible point. *)
val json_of_metrics : point_metrics option -> C.Json_lite.t

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
    digests its name, its source and the configuration fields of every
    stage in {!Alice_config.Flow_config.result}, so editing what a
    point computes never reuses a stale row, while a changed [jobs],
    [attack_jobs] or cache location still resumes it. [~resume:false]
    recomputes everything (checkpoints are still written). A checkpoint is loaded under the
    point's collector with {!run}'s warning routing, so an unusable one
    is recomputed with a [W0702] on that point's diagnostics (tagged
    with its ["config"] by {!point_diags}). With caching off there are
    no checkpoints and this degrades to {!run} on each point plus
    summarization. [~on_point] observes each point
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
    verdict pool: entries whose configurations differ only in fields no
    [Attack] stage reads — [attack_area_weight], [score_mode],
    [attack_jobs] — re-rank cached verdicts without re-running any
    attack. *)
val run_sweep :
  ?resume:bool -> ?on_point:(sweep_point -> unit) -> t ->
  (string * Flow.request) list -> sweep_point list
