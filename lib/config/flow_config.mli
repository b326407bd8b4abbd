(** Typed ALICE flow parameters, loaded from the custom YAML
    configuration file described in the paper (Section 3). *)

(** Direction of the solution ranking (Algorithm 3 line 25 selects the
    highest score; [Lowest] is provided for study). *)
type rank_order = Highest | Lowest

(** Which scoring formula feeds the ranking.

    [Reward] scores a fabric by its achieved utilization,
    [alpha * IOUtil/MaxIOUtil + beta * CLBUtil/MaxCLBUtil]; summed over a
    solution's eFPGAs and ranked highest-first it reproduces most of the
    paper's Table 2 selections. [Penalty] is Eq. 1 exactly as printed,
    which rewards unused capacity; it reproduces the remaining rows (see
    EXPERIMENTS.md on the polarity question). Default: [Reward]. *)
type score_formula = Reward | Penalty

(** Which scorer ranks the candidate solutions. [Heuristic] is Eq. 1
    (zero solver work, the default); [Measured] runs a budgeted
    oracle-guided SAT attack against every valid candidate's locked
    netlist and ranks on key-recovery cost traded against fabric area.
    YAML key: [score], values ["heuristic"] / ["measured"]. *)
type score_mode = Heuristic | Measured

val score_mode_to_string : score_mode -> string

(** Inverse of {!score_mode_to_string}; raises [Invalid_argument] on any
    other string. *)
val score_mode_of_string : string -> score_mode

type t = {
  max_io_pins : int;  (** max aggregated I/O pins per eFPGA *)
  max_efpgas : int;   (** max number of eFPGA instances *)
  alpha : float;      (** Eq. 1 I/O-utilization weight *)
  beta : float;       (** Eq. 1 CLB-utilization weight *)
  lut_inputs : int;   (** k of the k-LUTs (paper: 4) *)
  luts_per_clb : int; (** logic elements per CLB (paper: 4) *)
  ffs_per_clb : int;
  gpio_per_tile : int; (** GPIO pins per I/O tile (paper: 8) *)
  min_fabric_size : int; (** smallest permitted W of a W x W fabric *)
  max_fabric_size : int;
  target_utilization : float;
      (** max fraction of CLB capacity the mapper may fill; models the
          routability slack a real fabric flow needs *)
  min_clb_utilization : float;
      (** IsValid floor: fabrics utilized below this are rejected *)
  selected_outputs : string list;  (** outputs to protect; [] = all *)
  top : string option;
  min_score : int;  (** filtering keeps modules with score >= this *)
  rank_order : rank_order;
  score_formula : score_formula;
  score_mode : score_mode;
      (** [Heuristic] (default) ranks by Eq. 1; [Measured] ranks by
          budgeted attack verdicts *)
  attack_budget : int;
      (** measured scoring: conflict budget per SAT-solver call inside
          each candidate attack; must be positive *)
  attack_iterations : int;
      (** measured scoring: DIP-iteration cap per candidate attack;
          must be positive *)
  attack_jobs : int;
      (** worker domains for measured-scoring attack runs; [1] runs
          strictly serially. Verdicts are bit-identical across any
          [attack_jobs] value *)
  attack_area_weight : float;
      (** measured scoring: weight of the (normalized) fabric-area
          penalty traded against attack resilience; must be >= 0 *)
  transitive_independence : bool;
      (** true: any dataflow path between two instances makes them
          dependent; false (default): only a direct wire connection *)
  characterize_deadline_s : float option;
      (** wall-clock deadline in seconds for characterizing the whole
          candidate set; clusters not started before the deadline are
          skipped with a diagnostic. [None] disables the deadline *)
  jobs : int;
      (** worker domains for cluster characterization; [1] runs strictly
          serially (no domain is spawned). Results are order-preserving
          and bit-identical across any [jobs] value. Default: the
          runtime's recommended domain count *)
  cache : bool;
      (** persist characterizations across runs (engine-driven
          entrypoints only); results are identical either way, warm runs
          are just faster. Default: [true] *)
  cache_dir : string option;
      (** root of the on-disk characterization store; [None] falls back
          to [$ALICE_CACHE_DIR], [$XDG_CACHE_HOME/alice] or
          [~/.cache/alice] *)
  cache_max_bytes : int option;
      (** byte budget for the on-disk store; exceeded, least-recently
          used entries are evicted. [None] leaves the store unbounded *)
  fault_plan : string option;
      (** fault-injection plan spec (test machinery — see
          {!Alice_fault.Fault.parse}); [None] falls back to
          [$ALICE_FAULT_PLAN] *)
}

val default : t

(** The paper's cfg1: at most 64 I/O pins per eFPGA, up to two eFPGAs. *)
val cfg1 : t

(** The paper's cfg2: at most 96 I/O pins, a single eFPGA. *)
val cfg2 : t

(** Read a configuration from a parsed YAML document; unknown keys fall
    back to {!default}. Raises [Invalid_argument] on type mismatches. *)
val of_yaml : Yaml_lite.t -> t

val of_string : string -> t

(** Hex digest of every configuration field that can change a
    characterization outcome (fabric family, permitted widths,
    utilization bounds) — and none that cannot, so a persistent cache
    is shared across selection-only variations. Two configurations
    with equal digests always characterize a given cluster identically;
    the digest is part of the cache key, so configurations with
    different fabric parameters never share entries. *)
val characterize_digest : t -> string

(** Hex digest of every configuration field that can change an attack
    verdict (the per-call conflict budget and the DIP-iteration cap) —
    and none that cannot: [score_mode], [attack_jobs] and
    [attack_area_weight] are excluded, so cached verdicts survive
    re-ranking with a different area weight or parallelism. Part of the
    attack-verdict cache key. *)
val attack_digest : t -> string

val pp : Format.formatter -> t -> unit
