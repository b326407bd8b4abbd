(** eFPGA selection — Algorithm 3: score valid fabric implementations
    (Eq. 1 in either polarity, see
    {!Alice_config.Flow_config.score_formula}), enumerate every
    admissible solution (non-overlapping eFPGA sets up to the budget)
    with a branch-and-bound expansion, and rank. *)

module C = Alice_config
module F = Alice_fabric

(** The scoring seam of Algorithm 3: how valid fabric implementations
    are ranked. {!Scorer.Heuristic} is Eq. 1 (utilization proxies, zero
    solver work, the historical default); {!Scorer.Measured} attacks
    every valid candidate's locked netlist with the budgeted
    oracle-guided SAT attack and ranks on key-recovery cost traded
    against fabric area. Measured verdicts are deterministic (conflict-
    and iteration-bounded only, no timing recorded) so they are
    bit-identical across [attack_jobs] values and safe to persist. *)
module Scorer : sig
  module Sec = Alice_security

  (** What one budgeted attack run concluded about one candidate.
      Deliberately excludes wall-clock time: a verdict is a pure
      function of (locked netlist, fabric, budget). *)
  type verdict = {
    v_status : Sec.Sat_attack.status;
    v_iterations : int;  (** DIPs the attack used *)
    v_conflicts : int;   (** solver conflicts spent across all calls *)
    v_key_bits : int;
    v_reused : int;
        (** learnt clauses the attack's incremental session carried
            across queries *)
  }

  type stats = {
    attacks_run : int;           (** verdicts computed by attacking *)
    attacks_cached : int;        (** verdicts served from the cache *)
    attacks_inconclusive : int;  (** unique verdicts proving nothing *)
    attacks_reused : int;
        (** learnt clauses reused, summed over unique verdicts *)
  }

  val empty_stats : stats

  val add_stats : stats -> stats -> stats

  (** Shared verdict cache, usable across runs via [load]/[save] hooks
      backed by a persistent store (see {!Alice_parallel.Memo} for the
      hook contract — hooks must not raise). *)
  type cache

  val create_cache :
    ?load:(string -> verdict option) ->
    ?save:(string -> verdict -> unit) ->
    unit ->
    cache

  (** Attack-verdict cache key: fabric digest x locked-netlist digest x
      budget digest ({!Alice_config.Flow_config.attack_digest}).
      Changing the fabric, the netlist or any budget knob rekeys;
      changing [attack_jobs] or [attack_area_weight] does not. The
      string is persisted by every verdict store, so its format is
      pinned by a golden test. *)
  val verdict_key :
    C.Flow_config.t ->
    fabric:F.Fabric.t ->
    mapped:Alice_netlist.Circuit.t ->
    string

  type t = Heuristic | Measured of { cache : cache option }

  (** The scorer a configuration's [score_mode] asks for; [cache] backs
      [Measured] verdict lookups and is ignored under [Heuristic]. *)
  val of_config : ?cache:cache -> C.Flow_config.t -> t

  (** The attack budget [Measured] runs under: the configuration's
      conflict/iteration budgets, no wall-clock bound (determinism). *)
  val measured_budget : C.Flow_config.t -> Sec.Sat_attack.budget

  (** Attack one candidate's locked netlist under {!measured_budget}. *)
  val attack_one : C.Flow_config.t -> Alice_netlist.Circuit.t -> verdict

  (** Resilience of a verdict in [0, 1]: resisted-at-budget scores 1.0;
      a solved candidate scores [0.5 * c / (c + budget)] — below 0.5
      and monotone in the conflicts the break needed. *)
  val resilience : C.Flow_config.t -> verdict -> float

  (** [resilience] minus the weighted area cost (CLB count normalized
      by [max_clbs], the largest valid fabric's). *)
  val measured_score :
    C.Flow_config.t ->
    max_clbs:int ->
    F.Size_search.implementation ->
    verdict ->
    float

  (** Resolve a verdict per candidate (order preserved): key-aliasing
      candidates are attacked once, cache misses fan out over
      [attack_jobs] domains, every computed verdict is written back to
      the cache. *)
  val measure :
    cache:cache option ->
    C.Flow_config.t ->
    (F.Fabric.t * Alice_netlist.Circuit.t) list ->
    verdict list * stats
end

type efpga_impl = {
  cluster : Clustering.cluster;
  impl : F.Size_search.implementation;
  mapped : Alice_netlist.Circuit.t;
  score : float;
  verdict : Scorer.verdict option;
      (** the attack verdict behind [score]; [None] under
          {!Scorer.Heuristic} *)
}

type solution = {
  efpgas : efpga_impl list;
  total_score : float;
  redacted_instances : int;
  is_final : bool;
}

type result = {
  valid : efpga_impl list;    (** F in Algorithm 3 *)
  solutions : solution list;  (** S, ranked best first *)
  best : solution option;
  max_io_util : float;
  max_clb_util : float;
  attack : Scorer.stats;      (** zero under {!Scorer.Heuristic} *)
}

(** The per-fabric score under the configured formula and weights. *)
val score_eq1 :
  C.Flow_config.t ->
  max_io:float ->
  max_clb:float ->
  io_util:float ->
  clb_util:float ->
  float

(** [total_instances] is the admissible-instance count for IsFinal.
    [scorer] defaults to the configuration's [score_mode] (via
    {!Scorer.of_config}, with no verdict cache). *)
val run :
  ?scorer:Scorer.t ->
  C.Flow_config.t ->
  Characterize.characterization list ->
  total_instances:int ->
  result

val solution_count : result -> int

val pp_solution : Format.formatter -> solution -> unit
