(** Typed ALICE flow parameters, loaded from the custom YAML configuration
    file described in the paper (Section 3).

    The fabric fields mirror the OpenFPGA architecture knobs the paper
    fixes for its evaluation: CLBs of four 4-input fracturable LUTs and
    I/O tiles carrying 8 GPIOs each. *)

module J = Json_lite

(** Direction of Eq. 1 ranking. The paper's Algorithm 3 selects the
    solution with the *highest* score (line 25), which — with Eq. 1 as
    printed — prefers solutions whose fabrics sit further below the
    best-observed utilizations and, because a solution's score is the sum
    over its eFPGAs, prefers more eFPGAs (matching the two-eFPGA outcomes
    reported for DES3/GCD under cfg1). The surrounding prose instead
    argues for maximizing utilization; [Lowest] implements that reading.
    Default: [Highest], the literal Algorithm 3. *)
type rank_order = Highest | Lowest

(** Which scoring formula feeds the ranking.

    [Reward] scores a fabric by its achieved utilization,
    alpha * IOUtil/MaxIOUtil + beta * CLBUtil/MaxCLBUtil. Summed over a
    solution's eFPGAs and ranked highest-first, it reproduces every
    selection reported in the paper's Table 2 (multi-eFPGA solutions for
    GCD/DES3 under cfg1, the all-modules cluster for DES3 under cfg2).
    [Penalty] is Eq. 1 exactly as printed, which rewards *unused*
    capacity; it is kept for study because the paper's prose and its
    results are only consistent with [Reward]. Default: [Reward]. *)
type score_formula = Reward | Penalty

(** Which scorer ranks the candidate solutions.

    [Heuristic] is Eq. 1 (under {!score_formula}) — utilization proxies
    for attack resistance, zero solver work. [Measured] instead runs a
    budgeted oracle-guided SAT attack against every valid candidate's
    locked netlist and ranks on key-recovery cost (conflicts spent;
    resisted-at-budget outranks solved) traded against fabric area via
    [attack_area_weight]. Default: [Heuristic]. *)
type score_mode = Heuristic | Measured

let score_mode_to_string = function
  | Heuristic -> "heuristic"
  | Measured -> "measured"

let score_mode_of_string = function
  | "heuristic" -> Heuristic
  | "measured" -> Measured
  | other -> invalid_arg (Printf.sprintf "score: %s" other)

type t = {
  (* structural limits (CheckParameters in Algorithms 1 and 2) *)
  max_io_pins : int;        (** max aggregated I/O pins per eFPGA *)
  max_efpgas : int;         (** max number of eFPGA instances *)
  (* Eq. 1 weights *)
  alpha : float;
  beta : float;
  (* fabric family *)
  lut_inputs : int;         (** k of the k-LUTs (paper: 4) *)
  luts_per_clb : int;       (** logic elements per CLB (paper: 4) *)
  ffs_per_clb : int;        (** flip-flops per CLB *)
  gpio_per_tile : int;      (** GPIO pins per I/O tile (paper: 8) *)
  min_fabric_size : int;    (** smallest permitted W of a W x W fabric *)
  max_fabric_size : int;    (** largest permitted W *)
  target_utilization : float;
      (** max fraction of CLB capacity the mapper may fill; models the
          routability slack OpenFPGA's minimum-size search leaves *)
  min_clb_utilization : float;
      (** IsValid floor (Algorithm 3 line 4): fabrics utilized below this
          fraction are rejected as insecure/wasteful *)
  (* flow *)
  selected_outputs : string list;  (** outputs to protect; [] = all *)
  top : string option;
  min_score : int;          (** filtering keeps modules with score >= this *)
  rank_order : rank_order;
  score_formula : score_formula;
  score_mode : score_mode;
      (** [Heuristic] (default) ranks by Eq. 1; [Measured] ranks by
          budgeted attack verdicts (see {!score_mode}) *)
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
      (** when true, any dataflow path between two instances (even through
          registers and third-party logic) makes them dependent; when
          false (default) only a direct wire connection does *)
  (* resource budgets *)
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

let default =
  { max_io_pins = 64; max_efpgas = 2; alpha = 1.0; beta = 1.0;
    lut_inputs = 4; luts_per_clb = 4; ffs_per_clb = 4; gpio_per_tile = 8;
    min_fabric_size = 2; max_fabric_size = 20; target_utilization = 0.5;
    min_clb_utilization = 0.0;
    selected_outputs = []; top = None; min_score = 1; rank_order = Highest;
    score_formula = Reward; score_mode = Heuristic;
    attack_budget = 20_000; attack_iterations = 64; attack_jobs = 1;
    attack_area_weight = 0.25;
    transitive_independence = false;
    characterize_deadline_s = None;
    jobs = Domain.recommended_domain_count ();
    cache = true; cache_dir = None; cache_max_bytes = None }

(** The paper's cfg1: at most 64 I/O pins per eFPGA, up to two eFPGAs. *)
let cfg1 = { default with max_io_pins = 64; max_efpgas = 2 }

(** The paper's cfg2: at most 96 I/O pins, a single eFPGA. *)
let cfg2 = { default with max_io_pins = 96; max_efpgas = 1 }

let of_doc (doc : J.t) : t =
  let d = default in
  let fabric = J.get_obj doc "fabric" in
  let rank =
    match J.get_string ~default:"highest" doc "rank_order" with
    | "highest" -> Highest
    | "lowest" -> Lowest
    | other -> invalid_arg (Printf.sprintf "rank_order: %s" other)
  in
  let luts_per_clb =
    let n = J.get_int ~default:d.luts_per_clb fabric "luts_per_clb" in
    if n < 1 then invalid_arg "fabric.luts_per_clb: must be at least 1" else n
  in
  (* a zero pin budget admits no module and a zero eFPGA budget no
     solution: either would end the run blaming the design *)
  let at_least_1 key default =
    let n = J.get_int ~default doc key in
    if n < 1 then invalid_arg (key ^ ": must be at least 1") else n
  in
  (* a nan weight makes every score nan and the ranking arbitrary *)
  let finite key default =
    let v = J.get_float ~default doc key in
    if not (Float.is_finite v) then invalid_arg (key ^ ": must be finite") else v
  in
  (* an empty window has no fabric to try: every cluster would be
     characterized only to end the run with no feasible redaction *)
  let min_fabric_size = J.get_int ~default:d.min_fabric_size fabric "min_size" in
  if min_fabric_size < 1 then invalid_arg "fabric.min_size: must be at least 1";
  let max_fabric_size = J.get_int ~default:d.max_fabric_size fabric "max_size" in
  if max_fabric_size < min_fabric_size then
    invalid_arg "fabric.max_size: must be at least fabric.min_size";
  { max_io_pins = at_least_1 "max_io_pins" d.max_io_pins;
    max_efpgas = at_least_1 "max_efpgas" d.max_efpgas;
    alpha = finite "alpha" d.alpha;
    beta = finite "beta" d.beta;
    lut_inputs =
      (let k = J.get_int ~default:d.lut_inputs fabric "lut_inputs" in
       if k < 2 then invalid_arg "fabric.lut_inputs: must be at least 2" else k);
    luts_per_clb;
    ffs_per_clb =
      (let n = J.get_int ~default:d.ffs_per_clb fabric "ffs_per_clb" in
       (* packing gives every logic element a flip-flop slot *)
       if n < luts_per_clb then
         invalid_arg "fabric.ffs_per_clb: must be at least luts_per_clb"
       else n);
    gpio_per_tile =
      (let n = J.get_int ~default:d.gpio_per_tile fabric "gpio_per_tile" in
       if n < 1 then invalid_arg "fabric.gpio_per_tile: must be at least 1" else n);
    min_fabric_size;
    max_fabric_size;
    target_utilization =
      (let u =
         J.get_float ~default:d.target_utilization fabric "target_utilization"
       in
       (* [not (_ && _)] also refuses nan *)
       if not (u > 0.0 && u <= 1.0) then
         invalid_arg "fabric.target_utilization: must be in (0, 1]"
       else u);
    min_clb_utilization =
      (let u =
         J.get_float ~default:d.min_clb_utilization fabric "min_clb_utilization"
       in
       if not (u >= 0.0 && u <= 1.0) then
         invalid_arg "fabric.min_clb_utilization: must be in [0, 1]"
       else u);
    selected_outputs = J.get_string_list ~default:[] doc "selected_outputs";
    top = (match J.find doc "top" with
           | Some (J.String s) -> Some s
           | Some _ | None -> None);
    min_score = J.get_int ~default:d.min_score doc "min_score";
    rank_order = rank;
    score_formula =
      (match J.get_string ~default:"reward" doc "score_formula" with
       | "reward" -> Reward
       | "penalty" -> Penalty
       | other -> invalid_arg (Printf.sprintf "score_formula: %s" other));
    score_mode =
      score_mode_of_string
        (J.get_string ~default:(score_mode_to_string d.score_mode)
           doc "score");
    attack_budget =
      (match J.find doc "attack_budget" with
       | None | Some J.Null -> d.attack_budget
       | Some (J.Int n) ->
         if n <= 0 then invalid_arg "attack_budget: must be positive" else n
       | Some _ -> invalid_arg "attack_budget: expected an integer");
    attack_iterations =
      (match J.find doc "attack_iterations" with
       | None | Some J.Null -> d.attack_iterations
       | Some (J.Int n) ->
         if n <= 0 then invalid_arg "attack_iterations: must be positive"
         else n
       | Some _ -> invalid_arg "attack_iterations: expected an integer");
    attack_jobs =
      (match J.find doc "attack_jobs" with
       | None | Some J.Null -> d.attack_jobs
       | Some (J.Int n) ->
         if n < 1 then invalid_arg "attack_jobs: must be at least 1" else n
       | Some _ -> invalid_arg "attack_jobs: expected an integer");
    attack_area_weight =
      (let v =
         J.get_float ~default:d.attack_area_weight doc
           "attack_area_weight"
       in
       if not (Float.is_finite v && v >= 0.0) then
         invalid_arg "attack_area_weight: must be non-negative and finite"
       else v);
    transitive_independence =
      J.get_bool ~default:d.transitive_independence doc
        "transitive_independence";
    characterize_deadline_s =
      (match J.find doc "characterize_deadline_s" with
       | None | Some J.Null -> None
       | Some (J.Int n) ->
         if n <= 0 then invalid_arg "characterize_deadline_s: must be positive"
         else Some (float_of_int n)
       | Some (J.Float f) ->
         (* nan would compare as no deadline at all *)
         if not (Float.is_finite f && f > 0.0) then
           invalid_arg "characterize_deadline_s: must be positive and finite"
         else Some f
       | Some _ -> invalid_arg "characterize_deadline_s: expected a number");
    jobs =
      (match J.find doc "jobs" with
       | None | Some J.Null -> d.jobs
       | Some (J.Int n) ->
         if n < 1 then invalid_arg "jobs: must be at least 1" else n
       | Some _ -> invalid_arg "jobs: expected an integer");
    cache = J.get_bool ~default:d.cache doc "cache";
    cache_dir =
      (match J.find doc "cache_dir" with
       | None | Some J.Null -> None
       | Some (J.String s) -> Some s
       | Some _ -> invalid_arg "cache_dir: expected a string");
    cache_max_bytes =
      (match J.find doc "cache_max_bytes" with
       | None | Some J.Null -> None
       | Some (J.Int n) ->
         if n < 0 then invalid_arg "cache_max_bytes: must be non-negative"
         else Some n
       | Some _ -> invalid_arg "cache_max_bytes: expected an integer") }

let of_string (src : string) : t = of_doc (Yaml_lite.parse src)

(* Every field below feeds CreateEFPGA (synthesis target, fabric family,
   permitted widths, utilization bounds). Fields that only steer later
   phases — selection weights, output filters, ranking — are deliberately
   excluded so a persistent characterization cache is shared across
   them. The version prefix versions the whole characterization key:
   this list and how [Characterize.keyer] digests the member modules.
   Changing either is a format change, not a silent rekey. *)
let characterize_digest (c : t) : string =
  let s =
    Printf.sprintf
      "v2;lut_inputs=%d;luts_per_clb=%d;ffs_per_clb=%d;gpio_per_tile=%d;\
       min_fabric_size=%d;max_fabric_size=%d;target_utilization=%.17g;\
       min_clb_utilization=%.17g"
      c.lut_inputs c.luts_per_clb c.ffs_per_clb c.gpio_per_tile
      c.min_fabric_size c.max_fabric_size c.target_utilization
      c.min_clb_utilization
  in
  Digest.to_hex (Digest.string s)

(* Same discipline for attack verdicts: only the fields that can change
   what a budgeted attack run *returns* are keyed. [score_mode],
   [attack_jobs] and [attack_area_weight] are deliberately excluded —
   verdicts are bit-identical across job counts, and re-ranking with a
   different area weight must reuse cached verdicts, not re-attack. *)
let attack_digest (c : t) : string =
  let s =
    Printf.sprintf "v1;attack_budget=%d;attack_iterations=%d"
      c.attack_budget c.attack_iterations
  in
  Digest.to_hex (Digest.string s)

let pp fmt (c : t) =
  Format.fprintf fmt
    "@[<v>max_io_pins: %d@,max_efpgas: %d@,alpha: %g@,beta: %g@,fabric: %d-LUT x%d/CLB, %d GPIO/tile, W in [%d,%d], util<=%.2f@,outputs: [%s]@,min_score: %d@,rank: %s@]"
    c.max_io_pins c.max_efpgas c.alpha c.beta c.lut_inputs c.luts_per_clb
    c.gpio_per_tile c.min_fabric_size c.max_fabric_size c.target_utilization
    (String.concat ", " c.selected_outputs)
    c.min_score
    (match c.rank_order with Highest -> "highest" | Lowest -> "lowest")
