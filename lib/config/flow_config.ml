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

(* each variant's one spelling, for the readers, the keys and [pp] *)
let rank_orders = [ ("highest", Highest); ("lowest", Lowest) ]
let score_formulas = [ ("reward", Reward); ("penalty", Penalty) ]
let score_modes = [ ("heuristic", Heuristic); ("measured", Measured) ]
let spelling cases v = fst (List.find (fun (_, v') -> v' = v) cases)

let of_spelling key cases s =
  match List.assoc_opt s cases with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "%s: %s" key s)

let score_mode_to_string = spelling score_modes
let score_mode_of_string = of_spelling "score" score_modes

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
      (** persist characterizations, attack verdicts and sweep
          checkpoints across runs (engine-driven entrypoints only);
          results are identical either way. Default: [true] *)
  cache_dir : string option;
      (** root of the on-disk store; [None] falls back to
          [$ALICE_CACHE_DIR], [$XDG_CACHE_HOME/alice] or
          [~/.cache/alice] *)
  cache_max_bytes : int option;
      (** byte budget over every entry of the on-disk store (LRU
          eviction); [None] leaves the store unbounded *)
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
  let enum key cases default =
    of_spelling key cases
      (J.get_string ~default:(spelling cases default) doc key)
  in
  (* budgets, worker counts and fabric shapes: a zero pin budget admits
     no module and a zero eFPGA budget no solution, either ending the
     run blaming the design *)
  let at_least ?(map = doc) ?(prefix = "") lo key default =
    let n = J.get_int ~default map key in
    if n < lo then
      invalid_arg (Printf.sprintf "%s%s: must be at least %d" prefix key lo)
    else n
  in
  let fabric_at_least = at_least ~map:fabric ~prefix:"fabric." in
  let luts_per_clb = fabric_at_least 1 "luts_per_clb" d.luts_per_clb in
  (* a nan weight makes every score nan and the ranking arbitrary *)
  let finite key default =
    let v = J.get_float ~default doc key in
    if not (Float.is_finite v) then invalid_arg (key ^ ": must be finite") else v
  in
  (* a key without a default: [None] when absent or null *)
  let optional get key =
    match J.find doc key with
    | None | Some J.Null -> None
    | Some _ -> Some (get doc key)
  in
  (* an empty window has no fabric to try: every cluster would be
     characterized only to end the run with no feasible redaction *)
  let min_fabric_size = fabric_at_least 1 "min_size" d.min_fabric_size in
  let max_fabric_size = J.get_int ~default:d.max_fabric_size fabric "max_size" in
  if max_fabric_size < min_fabric_size then
    invalid_arg "fabric.max_size: must be at least fabric.min_size";
  { max_io_pins = at_least 1 "max_io_pins" d.max_io_pins;
    max_efpgas = at_least 1 "max_efpgas" d.max_efpgas;
    alpha = finite "alpha" d.alpha;
    beta = finite "beta" d.beta;
    lut_inputs = fabric_at_least 2 "lut_inputs" d.lut_inputs;
    luts_per_clb;
    ffs_per_clb =
      (let n = J.get_int ~default:d.ffs_per_clb fabric "ffs_per_clb" in
       (* packing gives every logic element a flip-flop slot *)
       if n < luts_per_clb then
         invalid_arg "fabric.ffs_per_clb: must be at least luts_per_clb"
       else n);
    gpio_per_tile = fabric_at_least 1 "gpio_per_tile" d.gpio_per_tile;
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
    top = optional J.get_string "top";
    min_score = J.get_int ~default:d.min_score doc "min_score";
    rank_order = enum "rank_order" rank_orders d.rank_order;
    score_formula = enum "score_formula" score_formulas d.score_formula;
    score_mode = enum "score" score_modes d.score_mode;
    attack_budget = at_least 1 "attack_budget" d.attack_budget;
    attack_iterations = at_least 1 "attack_iterations" d.attack_iterations;
    attack_jobs = at_least 1 "attack_jobs" d.attack_jobs;
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
      Option.map
        (fun s ->
          (* nan would compare as no deadline at all *)
          if not (Float.is_finite s && s > 0.0) then
            invalid_arg "characterize_deadline_s: must be positive and finite"
          else s)
        (optional J.get_float "characterize_deadline_s");
    jobs = at_least 1 "jobs" d.jobs;
    cache = J.get_bool ~default:d.cache doc "cache";
    cache_dir = optional J.get_string "cache_dir";
    cache_max_bytes =
      Option.map
        (fun n ->
          if n < 0 then invalid_arg "cache_max_bytes: must be non-negative"
          else n)
        (optional J.get_int "cache_max_bytes") }

let of_string (src : string) : t = of_doc (Yaml_lite.parse src)

(* ---------- what each keyed stage reads ---------- *)

type stage =
  | Front | Mapped | Packed | Placed | Sized | Attack | Selection | Deadline

type field = { name : string; stages : stage list; value : unit -> string }

let characterization = [ Mapped; Packed; Placed; Sized ]

let result = [ Front; Mapped; Packed; Placed; Sized; Selection; Deadline ]

(* The record pattern names every field, so a new field does not
   compile until it is classified here. *)
let classify (c : t) : field list =
  let { max_io_pins; max_efpgas; alpha; beta; lut_inputs; luts_per_clb;
        ffs_per_clb; gpio_per_tile; min_fabric_size; max_fabric_size;
        target_utilization; min_clb_utilization; selected_outputs; top;
        min_score; rank_order; score_formula; score_mode; attack_budget;
        attack_iterations; attack_jobs; attack_area_weight;
        transitive_independence; characterize_deadline_s; jobs; cache;
        cache_dir; cache_max_bytes } =
    c
  in
  let int = string_of_int and float = Printf.sprintf "%.17g"
  and str = Printf.sprintf "%S" and bool = string_of_bool in
  let opt show = function None -> "none" | Some v -> show v in
  (* measured selection ranks attack verdicts, traded against area *)
  let measured stages =
    match score_mode with Measured -> Selection :: stages | Heuristic -> stages
  in
  (* printed only when a key reads it: keys are built on every request *)
  let field name stages show v = { name; stages; value = (fun () -> show v) } in
  [ field "max_io_pins" [ Front ] int max_io_pins;
    field "max_efpgas" [ Selection ] int max_efpgas;
    field "alpha" [ Selection ] float alpha;
    field "beta" [ Selection ] float beta;
    field "lut_inputs" [ Mapped ] int lut_inputs;
    field "luts_per_clb" [ Packed ] int luts_per_clb;
    field "ffs_per_clb" [ Packed ] int ffs_per_clb;
    field "gpio_per_tile" [ Placed ] int gpio_per_tile;
    field "min_fabric_size" [ Sized ] int min_fabric_size;
    field "max_fabric_size" [ Sized ] int max_fabric_size;
    field "target_utilization" [ Sized ] float target_utilization;
    field "min_clb_utilization" [ Selection ] float min_clb_utilization;
    field "selected_outputs" [ Front ]
      (fun l -> String.concat "," (List.map str l)) selected_outputs;
    field "top" [ Front ] (opt str) top;
    field "min_score" [ Front ] int min_score;
    field "rank_order" [ Selection ] (spelling rank_orders) rank_order;
    field "score_formula" [ Selection ] (spelling score_formulas) score_formula;
    field "score_mode" [ Selection ] (spelling score_modes) score_mode;
    field "attack_budget" (measured [ Attack ]) int attack_budget;
    field "attack_iterations" (measured [ Attack ]) int attack_iterations;
    field "attack_jobs" [] int attack_jobs;
    field "attack_area_weight" (measured []) float attack_area_weight;
    field "transitive_independence" [ Front ] bool transitive_independence;
    field "characterize_deadline_s" [ Deadline ] (opt float)
      characterize_deadline_s;
    field "jobs" [] int jobs;
    field "cache" [] bool cache;
    field "cache_dir" [] (opt str) cache_dir;
    field "cache_max_bytes" [] (opt int) cache_max_bytes ]

let digest (tag : string) (stages : stage list) (fields : field list) :
    string =
  let buf = Buffer.create 128 in
  Buffer.add_string buf tag;
  List.iter
    (fun f ->
      if List.exists (fun s -> List.mem s stages) f.stages then
        Printf.bprintf buf ";%s=%s" f.name (f.value ()))
    fields;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pp fmt (c : t) =
  Format.fprintf fmt
    "@[<v>max_io_pins: %d@,max_efpgas: %d@,alpha: %g@,beta: %g@,fabric: %d-LUT x%d/CLB, %d GPIO/tile, W in [%d,%d], util<=%.2f@,outputs: [%s]@,min_score: %d@,rank: %s@]"
    c.max_io_pins c.max_efpgas c.alpha c.beta c.lut_inputs c.luts_per_clb
    c.gpio_per_tile c.min_fabric_size c.max_fabric_size c.target_utilization
    (String.concat ", " c.selected_outputs)
    c.min_score (spelling rank_orders c.rank_order)
