(** CreateEFPGA (Algorithm 3, lines 2-7): characterize a candidate
    cluster by actually building its eFPGA — a synthetic top
    instantiating the members with all ports exposed, synthesized,
    LUT-mapped, and passed to the minimum-fabric search. Results are
    cached by the cluster's identity (see {!keyer}) plus a digest of
    the configuration fields the characterization stages read (see
    {!config_keys}); a miss runs in memoized stages (netlist, mapped,
    packed, placed per width), so configurations that share a stage's
    inputs share its work; {!run_all_stats} deduplicates by that key up
    front and characterizes the unique keys across a Domain-based worker
    pool, with output bit-identical to the serial order for any [jobs]
    value. The cache may be supplied by the caller (see {!Engine}) so it
    outlives one run. *)

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

(** Synthesize and LUT-map the circuit a cluster would put on a fabric,
    the whole cluster at once: {!cluster_netlist}, then
    {!Alice_netlist.Lutmap.map}. Characterization maps a cluster of two
    or more members whole only when a member's piece raises (see
    {!cache}). *)
val cluster_circuit :
  V.Elaborate.design -> C.Flow_config.t -> Clustering.cluster -> N.Circuit.t

(** [splice design members pieces] is the mapped circuit of the cluster
    of [members], {!cluster_circuit}'s value with the same sharing,
    built without synthesizing or mapping anything: [pieces] holds each
    member's piece, in member order, that is the member alone as a
    cluster, its {!cluster_netlist} and that netlist's
    {!Alice_netlist.Lutmap.map} circuit at the cluster's k. Members of
    one module may share a piece. Characterization builds every cluster
    of two or more members this way (see {!cache}). *)
val splice :
  V.Elaborate.design -> V.Design.tree list -> (N.Circuit.t * N.Circuit.t) list ->
  N.Circuit.t

(** Shared characterization cache: a mutex-guarded memo table keyed by
    {!keyer}, safe to share across worker domains and across runs.
    Optional [load]/[save] hooks back it with a persistent store (see
    {!Alice_parallel.Memo} for the hook contract — hooks must not
    raise).

    A miss is computed through four in-memory stage tables the cache
    also owns, each keyed by its parent's key plus exactly what the
    stage reads: [netlist] (an identity, as in {!keyer}), [mapped]
    (+ k), [packed] (+ LUTs and FFs per CLB) and [placed] (+ GPIO per
    tile and one fabric width). The netlist and mapped stages hold
    pieces: a member's piece is the netlist and mapped entries of its
    one-member identity [module@digest], so each module is synthesized
    and mapped once per cache. A one-member cluster is its piece. A
    larger cluster's mapped entry, looked up first, is on a miss
    {!splice}d from its members' pieces; when a piece raises, the
    cluster is synthesized into its own netlist entry and mapped whole,
    so its fault is the one {!cluster_circuit} raises. A stage is
    written only when it returns, so a fault is never reused; a lookup
    that finds its key being computed waits for it, so each entry is
    computed once for any [jobs]; stage lookups run inside the one
    pooled task of their characterization. The stages add nothing to
    the persistent store: the final entry is the same.

    The cache also holds {!Flow}'s front end as one more in-memory
    stage, [front] (see {!front_stage}). *)
type cache

val create_cache :
  ?load:(string -> characterization option) ->
  ?save:(string -> characterization -> unit) ->
  unit ->
  cache

(** What {!Flow.run_request} builds before characterization — parse,
    elaboration, filtering and clustering of one source under one
    front-end configuration — minus the dataflow graph, which nothing
    reads after clustering: the AST, the elaborated design, the
    filtering result, the clusters, and the diagnostics recorded on the
    way (syntax errors, phase faults), replayed into every request that
    hits. Every part is immutable, so a value is shared across requests
    and domains. *)
type front = {
  ast : V.Ast.design;
  design : V.Elaborate.design;
  filtering : Filtering.result;
  clusters : Clustering.cluster list;
  diags : D.t list;
}

(** [front_stage cache ~key compute] is the front end [cache] holds
    under [key], else [compute ()], stored when it returns: an
    exception propagates and stores nothing. The caller owns the key,
    which must determine the value. *)
val front_stage : cache -> key:string -> (unit -> front) -> front

(** One stage's cumulative lookups since {!create_cache}: [stage] is
    ["netlist"], ["mapped"], ["packed"], ["placed"] or ["front"]. *)
type stage_stats = { stage : string; stage_hits : int; stage_computed : int }

(** The four characterization stages' counters in pipeline order, then
    the front stage's. *)
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

(** The configuration parts of the keys, digested once per run from
    {!Alice_config.Flow_config.classify}: [cfg_final] of every
    characterization stage, and each stage key's of its own stage, added
    to its parent's key. *)
type config_keys = {
  cfg_final : string;
  cfg_mapped : string;
  cfg_packed : string;
  cfg_placed : string;
}

val config_keys : C.Flow_config.t -> config_keys

(** [keyer design cfg] is the cache key function for clusters of
    [design] under [cfg]: the cluster's identity — its member modules in
    cluster order, each tagged by a digest of its elaborated subtree
    (its own content without source locations, plus its children's
    digests), no instance name — joined with the configuration's
    [cfg_final]. Same key implies the same netlist, across designs and
    configurations, so the same characterization outcome.
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
