(* The benchmark's inputs: which designs, which configurations and in
   what order. A workload's requests come in decks — fixed multisets of
   requests — and the seed only shuffles each deck, so every run
   measures the same mix whatever its seed and however many whole decks
   it completes. Nothing else here is random. *)

module B = Alice_benchmarks.Suite
module C = Alice_config
module J = Alice_config.Json_lite

type scale = Full | Smoke

let scale_name = function Full -> "full" | Smoke -> "smoke"

type design = { bench : B.benchmark; cfg2 : bool }

let design name ~cfg2 =
  match B.find name with
  | Some bench -> { bench; cfg2 }
  | None -> invalid_arg ("unknown benchmark design " ^ name)

let label d = Printf.sprintf "%s/%s" d.bench.B.name (if d.cfg2 then "cfg2" else "cfg1")

(* Every configuration the benchmark hands the flow pins [jobs] and
   [attack_jobs], so a later change of either default cannot silently
   change what the benchmark measures. *)
let config d =
  let c = if d.cfg2 then B.config2 d.bench else B.config1 d.bench in
  { c with C.Flow_config.jobs = 1; attack_jobs = 1 }

let d1 name = design name ~cfg2:false
let d2 name = design name ~cfg2:true

let shuffle (st : Random.State.t) (l : 'a list) : 'a list =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* How many decks a run of [seconds] serves: enough to fill [seconds]
   of request time at the reference speed, given the deck's cost
   [deck_s] there, and at least one. A run's mix is thus a function of
   [seconds] alone, never of how fast the machine happened to be. *)
let decks ~seconds ~deck_s = max 1 (int_of_float (Float.ceil (seconds /. deck_s)))

(* Each full-scale deck's request time at the reference speed, as
   measured on the reference host. *)
let redact_deck_s = 8.7
let attack_deck_s = 15.8
let advise_deck_s = 22.0
let serve_deck_s = 0.5

(* One generator per (workload, seed, deck), so deck [k] is the same
   whether or not earlier decks were drawn. *)
let rng ~tag ~seed ~deck = Random.State.make [| Hashtbl.hash tag; seed; deck |]

(* ---------- redact_cold ---------- *)

type redact_req = { r_design : design; r_jitter : float }

let redact_config r =
  let c = config r.r_design in
  { c with
    C.Flow_config.target_utilization =
      c.C.Flow_config.target_utilization +. r.r_jitter }

(* Each design/configuration twice per deck, once per utilization
   jitter, and the SoC once (half weight, unjittered). *)
let redact_deck ~scale ~seed k : redact_req list =
  let reqs =
    match scale with
    | Full ->
      List.concat_map
        (fun name ->
          List.concat_map
            (fun d -> [ { r_design = d; r_jitter = 0.0 }; { r_design = d; r_jitter = -0.05 } ])
            [ d1 name; d2 name ])
        [ "GCD"; "SASC"; "USB_PHY"; "FIR"; "IIR"; "SHA256" ]
      @ [ { r_design = d1 "SOC"; r_jitter = 0.0 } ]
    | Smoke ->
      [ { r_design = d1 "GCD"; r_jitter = 0.0 };
        { r_design = d1 "SASC"; r_jitter = -0.05 };
        { r_design = d1 "USB_PHY"; r_jitter = 0.0 };
        { r_design = d1 "FIR"; r_jitter = 0.0 };
        { r_design = d1 "IIR"; r_jitter = 0.0 } ]
  in
  shuffle (rng ~tag:"redact_cold" ~seed ~deck:k) reqs

(* ---------- attack_measured ---------- *)

type attack_req = { a_design : design; a_budget : int; a_iterations : int }

let attack_config a =
  { (config a.a_design) with
    C.Flow_config.score_mode = C.Flow_config.Measured;
    attack_budget = a.a_budget;
    attack_iterations = a.a_iterations }

let attack_designs ~scale =
  match scale with
  | Full ->
    [ d1 "GCD"; d1 "SASC"; d2 "SASC"; d1 "USB_PHY"; d2 "USB_PHY"; d2 "FIR";
      d1 "SHA256" ]
  | Smoke -> [ d1 "USB_PHY"; d2 "USB_PHY"; d1 "SASC" ]

(* Budget (500, 4) three times and (1000, 8) once per design and deck,
   and GCD/cfg1 once more at (500, 4): without it the deck's median
   falls on the edge of four request kinds of near-equal latency, and
   reads as the largest of them. *)
let attack_deck ~scale ~seed k : attack_req list =
  let reqs =
    match scale with
    | Full ->
      List.concat_map
        (fun d ->
          let small = { a_design = d; a_budget = 500; a_iterations = 4 } in
          [ small; small; small; { small with a_budget = 1000; a_iterations = 8 } ])
        (attack_designs ~scale)
      @ [ { a_design = d1 "GCD"; a_budget = 500; a_iterations = 4 } ]
    | Smoke ->
      let small d = { a_design = d; a_budget = 500; a_iterations = 4 } in
      [ small (d1 "USB_PHY"); small (d1 "USB_PHY"); small (d2 "USB_PHY");
        small (d1 "SASC");
        { (small (d1 "USB_PHY")) with a_budget = 1000; a_iterations = 8 } ]
  in
  shuffle (rng ~tag:"attack_measured" ~seed ~deck:k) reqs

(* ---------- advise_grid ---------- *)

(* One advisor invocation: a 2x2x2 grid over LUT size, the largest
   permitted fabric width and the target utilization. *)
type grid = {
  g_design : design;
  g_luts : int list;
  g_widths : int list;
  g_utils : float list;
}

let grid_axes g : Alice.Advisor.axes =
  let c = config g.g_design in
  { Alice.Advisor.ax_lut_inputs = g.g_luts;
    ax_max_widths = g.g_widths;
    ax_utilizations = g.g_utils;
    ax_attack_budgets = [ c.C.Flow_config.attack_budget ];
    ax_score_modes = [ C.Flow_config.Heuristic ] }

(* Identity of a grid up to axis order: equal keys must rank equal. *)
let grid_key g =
  let sorted l = List.sort compare l in
  Printf.sprintf "%s k%s w%s u%s" (label g.g_design)
    (String.concat "," (List.map string_of_int (sorted g.g_luts)))
    (String.concat "," (List.map string_of_int (sorted g.g_widths)))
    (String.concat "," (List.map (Printf.sprintf "%g") (sorted g.g_utils)))

(* The axis values are fixed per design (the widest permitted fabric and
   two below it; the design's utilization and 0.05 below it); the seed
   orders the invocations and each axis, which orders the grid. A full
   deck runs every design's grid twice, so every grid point is timed
   twice. *)
let advise_deck ~scale ~seed k : grid list =
  let st = rng ~tag:"advise_grid" ~seed ~deck:k in
  let grid d =
    let c = config d in
    let w = c.C.Flow_config.max_fabric_size
    and u = c.C.Flow_config.target_utilization in
    { g_design = d;
      g_luts = shuffle st [ 4; 6 ];
      g_widths = shuffle st [ w; w - 2 ];
      g_utils = shuffle st [ u; u -. 0.05 ] }
  in
  let designs =
    match scale with
    | Full ->
      let six = [ d2 "GCD"; d1 "GCD"; d2 "FIR"; d1 "SHA256"; d1 "SASC"; d1 "USB_PHY" ] in
      six @ six
    | Smoke -> [ d1 "USB_PHY" ]
  in
  List.map grid (shuffle st designs)

(* ---------- serve_mixed ---------- *)

type op =
  | Ping
  | Hot of design
  | Novel of design * int
      (* the [n]th novel request of a run: a never-used utilization *)

let hot_designs ~scale =
  match scale with
  | Full -> [ d1 "GCD"; d2 "GCD"; d1 "SASC"; d1 "USB_PHY"; d2 "FIR"; d1 "SHA256" ]
  | Smoke -> [ d1 "USB_PHY"; d1 "SASC" ]

(* A novel request's utilization differs from its hot twin's by a tiny
   step, so its characterization digest is new (a cold computation on
   the server) while the clamped CLB budgets, and thus the fabrics, stay
   the same. *)
let novel_step = 1e-7

let op_config = function
  | Ping -> None
  | Hot d -> Some (config d)
  | Novel (d, n) ->
    let c = config d in
    Some
      { c with
        C.Flow_config.target_utilization =
          c.C.Flow_config.target_utilization +. (novel_step *. float_of_int (n + 1)) }

let op_design = function Ping -> None | Hot d | Novel (d, _) -> Some d

(* Per deck: every hot design twice, every hot design but GCD/cfg2 (a
   second-long cold characterization that would dominate the queue)
   once as a novel request, and six pings: 12 + 5 heavy, 6 cheap. *)
let serve_deck ~scale ~seed k : op list =
  let hot = hot_designs ~scale in
  let novel = List.filter (fun d -> label d <> "GCD/cfg2") hot in
  let per_deck = List.length novel in
  let ops =
    match scale with
    | Full ->
      List.concat_map (fun d -> [ Hot d; Hot d ]) hot
      @ List.mapi (fun i d -> Novel (d, (k * per_deck) + i)) novel
      @ List.init 6 (fun _ -> Ping)
    | Smoke ->
      [ Ping; Hot (d1 "USB_PHY"); Hot (d1 "SASC"); Novel (d1 "USB_PHY", k); Ping ]
  in
  shuffle (rng ~tag:"serve_mixed" ~seed ~deck:k) ops

(* The configuration as the wire protocol's [config] object: every field
   the flow reads, so the server's configuration equals [c] exactly. *)
let config_json (c : C.Flow_config.t) : J.t =
  let open C.Flow_config in
  J.Obj
    [ ("max_io_pins", J.Int c.max_io_pins);
      ("max_efpgas", J.Int c.max_efpgas);
      ("alpha", J.Float c.alpha);
      ("beta", J.Float c.beta);
      ( "fabric",
        J.Obj
          [ ("lut_inputs", J.Int c.lut_inputs);
            ("luts_per_clb", J.Int c.luts_per_clb);
            ("ffs_per_clb", J.Int c.ffs_per_clb);
            ("gpio_per_tile", J.Int c.gpio_per_tile);
            ("min_size", J.Int c.min_fabric_size);
            ("max_size", J.Int c.max_fabric_size);
            ("target_utilization", J.Float c.target_utilization);
            ("min_clb_utilization", J.Float c.min_clb_utilization) ] );
      ("selected_outputs", J.List (List.map (fun s -> J.String s) c.selected_outputs));
      ("top", match c.top with Some t -> J.String t | None -> J.Null);
      ("min_score", J.Int c.min_score);
      ("rank_order", J.String (match c.rank_order with Highest -> "highest" | Lowest -> "lowest"));
      ( "score_formula",
        J.String (match c.score_formula with Reward -> "reward" | Penalty -> "penalty") );
      ("score", J.String (score_mode_to_string c.score_mode));
      ("attack_budget", J.Int c.attack_budget);
      ("attack_iterations", J.Int c.attack_iterations);
      ("attack_jobs", J.Int c.attack_jobs);
      ("attack_area_weight", J.Float c.attack_area_weight);
      ("transitive_independence", J.Bool c.transitive_independence);
      ("jobs", J.Int c.jobs) ]
