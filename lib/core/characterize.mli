(** CreateEFPGA (Algorithm 3, lines 2-7): characterize a candidate
    cluster by actually building its eFPGA — a synthetic top
    instantiating the members with all ports exposed, synthesized,
    LUT-mapped, and passed to the minimum-fabric search. Results are
    cached by member-module multiset (subtree-digested) plus the
    configuration's {!Alice_config.Flow_config.characterize_digest}; a
    miss runs in memoized stages (netlist, mapped, packed, placed per
    width), so configurations that share a stage's inputs share its
    work;
    {!run_all_stats} deduplicates by that key up front and characterizes
    the unique keys across a Domain-based worker pool, with output
    bit-identical to the serial order for any [jobs] value. The cache
    may be supplied by the caller (see {!Engine}) so it outlives one
    run. *)

module V = Alice_verilog
module N = Alice_netlist
module F = Alice_fabric
module C = Alice_config
module D = Alice_diag.Diag

(** How characterizing one cluster ended. [Implemented] is a feasible
    fabric; [Infeasible] is the size search's expected "no permitted
    fabric works"; [Failed] is a fault — an exception that escaped
    synthesis, mapping or the search, captured as a diagnostic so one
    broken cluster cannot abort the whole flow; [Skipped] is a cluster
    never dispatched because the characterization deadline passed — a
    budget decision carried as a [W0701] warning, not a fault. *)
type outcome =
  | Implemented of F.Size_search.implementation
  | Infeasible of F.Size_search.failure
  | Failed of D.t
  | Skipped of D.t

type characterization = {
  cluster : Clustering.cluster;
  outcome : outcome;
  mapped : N.Circuit.t option;  (** the LUT-mapped cluster *)
}

(** Synthesize the gate-level circuit of a cluster's synthetic top: a
    module instantiating every member with all ports exposed. *)
val cluster_netlist : V.Elaborate.design -> Clustering.cluster -> N.Circuit.t

(** Synthesize and LUT-map the circuit a cluster would put on a fabric. *)
val cluster_circuit :
  V.Elaborate.design -> C.Flow_config.t -> Clustering.cluster -> N.Circuit.t

(** Shared characterization cache: a mutex-guarded memo table keyed by
    {!keyer}, safe to share across worker domains and across runs.
    Optional [load]/[save] hooks back it with a persistent store (see
    {!Alice_parallel.Memo} for the hook contract — hooks must not
    raise).

    A miss is computed through four in-memory stage tables the cache
    also owns, each keyed by its parent's key plus exactly what the
    stage reads: [netlist] (the members in cluster order — instance,
    module and original module names — with their subtree digests),
    [mapped] (+ k), [packed] (+ LUTs and FFs per CLB) and [placed]
    (+ GPIO per tile and one fabric width). A stage is written only when
    it returns, so a fault is never reused; stage lookups run inside
    the one pooled task of their characterization. The stages add
    nothing to the persistent store: the final entry is the same. *)
type cache

val create_cache :
  ?load:(string -> characterization option) ->
  ?save:(string -> characterization -> unit) ->
  unit ->
  cache

(** One stage's cumulative lookups since {!create_cache}: [stage] is
    ["netlist"], ["mapped"], ["packed"] or ["placed"]. *)
type stage_stats = { stage : string; stage_hits : int; stage_computed : int }

(** The four stages' counters, in pipeline order. *)
val stage_stats : cache -> stage_stats list

(** Per-{!run_all_stats} accounting, in unique cache keys: [unique] distinct
    keys among [clusters] requested, of which [cache_hits] came from
    the cache (in-memory or its backing store), [computed] were
    characterized in this run, and [skipped] fell to the deadline. *)
type stats = {
  clusters : int;
  unique : int;
  cache_hits : int;
  computed : int;
  skipped : int;
}

val empty_stats : stats

(** [keyer design cfg] is the cache key function for clusters of
    [design] under [cfg]: a cluster's member-module multiset with each
    member tagged by a digest of its elaborated subtree (its own content
    without source locations, plus its children's digests), joined with
    the configuration's characterization digest. Sound across designs
    and configurations: same key implies same characterization outcome.
    A child edit rekeys every cluster containing an ancestor; a line
    shift or a file rename rekeys nothing. Per-module digests and the
    config digest are computed once per keyer. *)
val keyer :
  V.Elaborate.design -> C.Flow_config.t -> Clustering.cluster -> string

(** Characterize every cluster and account for the cache; order
    preserved and output independent of [jobs] (default 1: strictly
    serial, no domain spawned). One {!Alice_parallel.Memo.resolve}
    call: clusters are deduplicated by cache key up front — one
    computation per unique key, fanned back out to every aliasing
    cluster with per-cluster relabeled diagnostics. Keys already present
    in [cache] (default: a fresh ephemeral one) are served from it; only
    fabric verdicts ([Implemented]/[Infeasible]) are written back, so
    faults and deadline skips never stick across runs. With
    [deadline_s], computations not started before the wall-clock
    deadline come back [Skipped] with a [W0701] diagnostic; in-flight
    computations are allowed to finish. *)
val run_all_stats :
  ?deadline_s:float ->
  ?jobs:int ->
  ?cache:cache ->
  V.Elaborate.design ->
  C.Flow_config.t ->
  Clustering.cluster list ->
  characterization list * stats
