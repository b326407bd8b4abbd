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
}

val default : t

(** The paper's cfg1: at most 64 I/O pins per eFPGA, up to two eFPGAs. *)
val cfg1 : t

(** The paper's cfg2: at most 96 I/O pins, a single eFPGA. *)
val cfg2 : t

(** Read a configuration from a parsed document — a YAML file or a JSON
    request, both {!Json_lite.t}; unknown keys fall back to {!default}.
    Raises [Invalid_argument] naming the key on type mismatches and
    out-of-range values, nan included: among them a float for an
    integer key, a [top] that is neither a string nor null (null, like
    an absent [top], auto-detects), a [max_io_pins], [max_efpgas],
    [attack_budget], [attack_iterations], [attack_jobs] or [jobs] below
    1, a non-finite [alpha] or [beta], a negative or non-finite
    [attack_area_weight], a non-positive or non-finite
    [characterize_deadline_s], a [fabric] that is not a mapping, a
    [fabric.min_size] below 1 or a [fabric.max_size] below it, a
    [fabric.target_utilization] outside (0, 1\] or a
    [fabric.min_clb_utilization] outside \[0, 1\]. *)
val of_doc : Json_lite.t -> t

(** [of_doc] over {!Yaml_lite.parse}. *)
val of_string : string -> t

(** The keyed stages of a run: [Front] (parse to clustering), the
    characterization stages in parent order (LUT mapping, CLB packing,
    placement and routing at one width, the size search), one [Attack]
    verdict, [Selection] (Algorithm 3) and the [Deadline] that decides
    which clusters are characterized at all. *)
type stage =
  | Front | Mapped | Packed | Placed | Sized | Attack | Selection | Deadline

(** A field, the stages that read it ([]: none, so it changes how a run
    executes, never what it returns) and its value as keys print it. *)
type field = { name : string; stages : stage list; value : unit -> string }

(** [Mapped], [Packed], [Placed] and [Sized]. *)
val characterization : stage list

(** Every stage a run's result depends on, the configuration part of a
    sweep point's identity. Under [Measured] scoring [Selection] reads
    the attack fields too, so the verdicts they key are covered. *)
val result : stage list

(** Every field of [t] in declaration order with the stages that read
    it: the one classification every cache key's configuration part
    comes from, so a field outside a stage's read set never splits that
    stage's cache and one inside it always rekeys it. *)
val classify : t -> field list

(** [digest tag stages (classify c)]: hex MD5 of [tag] followed by
    [;name=value] for every field some stage in [stages] reads, in
    declaration order; ints print in decimal, floats with [%.17g],
    strings quoted. *)
val digest : string -> stage list -> field list -> string

val pp : Format.formatter -> t -> unit
