(* ALICE benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 7) and runs the ablations DESIGN.md calls
   out.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe table2     # one section
     dune exec bench/main.exe table2 micro  # several, in order
     sections: table1 table2 figure4 security overhead soc ablation
             parallel cache attack advise server mixed micro

   Paper reference values are printed next to the measured ones so the
   output doubles as the data source for EXPERIMENTS.md. The [micro]
   section registers one Bechamel Test.make per table/figure and reports
   monotonic-clock estimates for the underlying kernels.

   Besides the console report, every run writes BENCH_<rev>.json into
   the working directory (rev = `git rev-parse --short HEAD`, or "dev"
   outside a checkout): per-section wall times plus each section's key
   scalars (request throughput, cache hit rates, speedups), so a
   snapshot per revision can be committed and diffed. *)

module A = Alice
module B = Alice_benchmarks.Suite
module C = Alice_config
module F = Alice_fabric
module N = Alice_netlist
module V = Alice_verilog
module Sec = Alice_security
module Jl = Alice_config.Json_lite

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

(* ---- machine-readable results, accumulated across sections ---- *)

(* key scalars noted by the currently running section *)
let section_notes : (string * Jl.t) list ref = ref []

let note key v = section_notes := !section_notes @ [ (key, v) ]
let note_f key v = note key (Jl.Float v)
let note_i key v = note key (Jl.Int v)

(* (section, seconds + notes) rows in run order *)
let recorded : (string * Jl.t) list ref = ref []

let record_section name seconds =
  recorded :=
    !recorded @ [ (name, Jl.Obj (("seconds", Jl.Float seconds) :: !section_notes)) ];
  section_notes := []

let git_rev () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> "dev"
  | ic ->
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    let status = try Unix.close_process_in ic with _ -> Unix.WEXITED 1 in
    (match (status, line) with
    | Unix.WEXITED 0, rev when rev <> "" -> rev
    | _ -> "dev")

let write_snapshot ~wall_s =
  let rev = git_rev () in
  let path = Printf.sprintf "BENCH_%s.json" rev in
  let doc =
    Jl.Obj
      [ ("rev", Jl.String rev);
        ("wall_s", Jl.Float wall_s);
        ("sections", Jl.Obj !recorded) ]
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Jl.to_string doc);
      Out_channel.output_char oc '\n');
  Format.printf "snapshot: %s@." path

(* every flow here is a one-off on a parsed design: a plain request
   through an ephemeral cache *)
let run_flow ~config ast =
  A.Flow.run_request (A.Flow.request ~config (A.Flow.Ast ast))

(* ------------------------------------------------------------------ *)
(* Table 1: benchmark characteristics                                  *)
(* ------------------------------------------------------------------ *)

let paper_table1 =
  [ ("DES3", "CEP", 11, 11, (12, 301));
    ("FIR", "CEP", 5, 5, (64, 384));
    ("IIR", "CEP", 5, 5, (66, 384));
    ("SHA256", "CEP", 3, 3, (38, 774));
    ("SASC", "IWLS05", 2, 3, (23, 28));
    ("USB_PHY", "IWLS05", 3, 3, (17, 33));
    ("GCD", "OpenROAD", 10, 11, (6, 68)) ]

let run_table1 () =
  section "Table 1: characteristics of the selected benchmarks";
  Format.printf "%-8s %-9s %8s %10s %14s   %s@." "Design" "Suite" "Modules"
    "Instances" "I/O [min,max]" "(paper)";
  List.iter
    (fun (b : B.benchmark) ->
      let d = B.elaborate b in
      let row = A.Report.table1_row ~design_name:b.B.name d in
      (* a benchmark without a paper row (e.g. a newly added design)
         must not kill the whole bench binary *)
      let paper_ref =
        match List.find_opt (fun (n, _, _, _, _) -> n = b.B.name) paper_table1 with
        | Some (_, _, pm, pi, (plo, phi)) ->
          Printf.sprintf "(%d, %d, [%d, %d])" pm pi plo phi
        | None -> "(no paper ref)"
      in
      Format.printf "%-8s %-9s %8d %10d %14s   %s@." b.B.name
        b.B.suite row.A.Report.t1_modules row.A.Report.t1_instances
        (Printf.sprintf "[%d, %d]" row.A.Report.t1_io_min row.A.Report.t1_io_max)
        paper_ref)
    B.all

(* ------------------------------------------------------------------ *)
(* Table 2: the full flow under both configurations                    *)
(* ------------------------------------------------------------------ *)

(* the paper's Table 2, for side-by-side printing:
   (design, R, C, valid, S, sizes, redacted) *)
let paper_table2_cfg1 =
  [ ("DES3", 8, Some 218, Some 216, Some 2105, "8x8, 8x8", Some 4);
    ("FIR", 1, Some 1, Some 1, Some 1, "6x6", Some 1);
    ("IIR", 0, None, None, None, "-", None);
    ("SHA256", 1, Some 1, Some 1, Some 1, "12x12", Some 1);
    ("SASC", 1, Some 1, Some 1, Some 1, "7x7", Some 1);
    ("USB_PHY", 2, Some 3, Some 1, Some 1, "7x7", Some 1);
    ("GCD", 9, Some 28, Some 19, Some 76, "4x4, 4x4", Some 2) ]

let paper_table2_cfg2 =
  [ ("DES3", 8, Some 255, Some 255, Some 245, "14x14", Some 8);
    ("FIR", 3, Some 3, Some 3, Some 3, "6x6", Some 1);
    ("IIR", 2, Some 2, Some 2, Some 2, "15x15", Some 1);
    ("SHA256", 1, Some 1, Some 1, Some 1, "12x12", Some 1);
    ("SASC", 1, Some 1, Some 1, Some 1, "7x7", Some 1);
    ("USB_PHY", 2, Some 3, Some 1, Some 1, "7x7", Some 1);
    ("GCD", 10, Some 70, Some 37, Some 33, "5x5", Some 3) ]

let opt_str = function None -> "-" | Some v -> string_of_int v

let run_table2_config label config_of paper =
  Format.printf "@.--- %s ---@." label;
  Format.printf "%a" A.Report.pp_table2_header ();
  let flows =
    List.map
      (fun (b : B.benchmark) ->
        let flow = run_flow ~config:(config_of b) (B.parse b) in
        Format.printf "%a%!" A.Report.pp_table2_row
          (A.Report.row_of_flow ~design_name:b.B.name flow);
        (b, flow))
      B.all
  in
  Format.printf "paper reference (structural columns):@.";
  List.iter
    (fun (name, r, c, valid, s, sizes, redacted) ->
      Format.printf "  %-8s |R|=%-3d |C|=%-4s valid=%-4s |S|=%-5s %-12s redacted=%s@."
        name r (opt_str c) (opt_str valid) (opt_str s) sizes (opt_str redacted))
    paper;
  flows

let run_table2 () =
  section "Table 2: ALICE under the two configurations";
  let flows1 = run_table2_config "cfg1: 64 I/O pins and 2 eFPGAs" B.config1 paper_table2_cfg1 in
  let flows2 = run_table2_config "cfg2: 96 I/O pins and 1 eFPGA" B.config2 paper_table2_cfg2 in
  (flows1, flows2)

(* ------------------------------------------------------------------ *)
(* Figure 4: physical area of the two GCD solutions                    *)
(* ------------------------------------------------------------------ *)

let solution_area (b : B.benchmark) (flow : A.Flow.t) : float * string =
  match flow.A.Flow.selection.A.Selection.best with
  | None -> (nan, "-")
  | Some best ->
    let fabrics =
      List.map
        (fun (e : A.Selection.efpga_impl) -> e.impl.F.Size_search.fabric)
        best.A.Selection.efpgas
    in
    (* remaining ASIC logic: the opaque redacted design (fabric stubs are
       empty) synthesized and counted in gate equivalents *)
    let asic_gates =
      match A.Flow.redact ~view:A.Redact.Opaque flow with
      | None -> 0
      | Some r ->
        let ast = V.Parser.parse r.A.Redact.verilog in
        let d = V.Elaborate.elaborate ~top:b.B.top ast in
        N.Stats.logic_gate_count (N.Synth.synthesize d)
    in
    ( F.Area.solution_area ~asic_gates fabrics,
      String.concat " + " (List.map F.Fabric.size_label fabrics) )

let run_figure4 () =
  section "Figure 4: physical area of the two GCD solutions (NanGate 45nm model)";
  let gcd = Option.get (B.find "GCD") in
  let ast = B.parse gcd in
  let flow1 = run_flow ~config:(B.config1 gcd) ast in
  let flow2 = run_flow ~config:(B.config2 gcd) ast in
  let a1, s1 = solution_area gcd flow1 in
  let a2, s2 = solution_area gcd flow2 in
  Format.printf "cfg1 (%s): %10.0f um^2   (paper: two 4x4, 52,629 um^2)@." s1 a1;
  Format.printf "cfg2 (%s): %10.0f um^2   (paper: one 5x5,  54,512 um^2)@." s2 a2;
  Format.printf "ratio cfg2/cfg1: measured %.2f, paper %.2f@." (a2 /. a1)
    (54512. /. 52629.);
  Format.printf
    "(the paper's claim is that the two solutions are area-equivalent;@.\
    \ see EXPERIMENTS.md on why a tile-additive model cannot reproduce@.\
    \ the exact pair of numbers)@."

(* ------------------------------------------------------------------ *)
(* Security ablation: SAT attack vs fabric utilization (Eq. 1 basis)   *)
(* ------------------------------------------------------------------ *)

(* Both attacks are bounded by work only (DIPs; flips and queries), never
   by wall clock, so the verdicts depend on the candidate alone and not
   on how fast the solver or the host is. *)
let run_security () =
  section "Security ablation: exact SAT attack vs approximate baseline";
  Format.printf "%-18s %6s %9s | %6s %9s %8s %9s | %9s %8s@." "candidate"
    "LUTs" "key bits" "DIPs" "conflicts" "time(s)" "SAT" "agree%" "hill(s)";
  let attack_one label mapped =
    let locked = Sec.Locked.of_mapped mapped in
    let oracle = Sec.Locked.make_oracle locked in
    let budget = { Sec.Sat_attack.max_iterations = 200; max_seconds = infinity;
                   solver_conflicts = None } in
    let o = Sec.Sat_attack.attack ~budget locked ~oracle in
    let correct =
      match o.Sec.Sat_attack.key with
      | Some key -> Sec.Metrics.key_is_correct locked key
      | None -> false
    in
    let approx =
      Sec.Approx_attack.attack
        ~budget:{ Sec.Approx_attack.queries = 96; max_flips = 2000; restarts = 4;
                  max_seconds = infinity }
        locked ~oracle
    in
    Format.printf "%-18s %6d %9d | %6d %9d %8.2f %9s | %8.0f%% %8.2f@." label
      (N.Circuit.lut_count mapped) o.Sec.Sat_attack.key_bits
      o.Sec.Sat_attack.iterations o.Sec.Sat_attack.conflicts
      o.Sec.Sat_attack.seconds
      (if o.Sec.Sat_attack.success then (if correct then "correct" else "WRONG")
       else Sec.Sat_attack.status_to_string o.Sec.Sat_attack.status)
      (100.0 *. approx.Sec.Approx_attack.best_agreement)
      approx.Sec.Approx_attack.seconds
  in
  List.iter
    (fun (label, bench, module_name) ->
      let b = Option.get (B.find bench) in
      let design = B.elaborate b in
      let circuit = N.Synth.synthesize_module design module_name in
      let mapped, _ = N.Lutmap.map ~k:4 circuit in
      attack_one label mapped)
    [ ("GCD/ctrl", "GCD", "gcd_ctrl");
      ("GCD/is_zero", "GCD", "is_zero");
      ("GCD/cmp_eq", "GCD", "cmp_eq");
      ("GCD/cmp_lt", "GCD", "cmp_lt");
      ("GCD/subtractor", "GCD", "subtractor");
      ("DES3/sbox1", "DES3", "sbox1");
      ("DES3/sbox5", "DES3", "sbox5") ];
  Format.printf
    "@.Reading: key length grows with the logic placed on the fabric, and@.\
     the function class decides how many DIPs the attack needs. The FSM,@.\
     the subtractor and both DES s-boxes give up a correct key within@.\
     25-73 DIPs; the s-boxes' 520 key bits take ~95k conflicts each.@.\
     The zero detector and the two comparators exhaust the 200-DIP@.\
     budget; the first two are point functions, the same output for@.\
     almost every input, so each DIP prunes little of the key space.@.\
     The budget counts DIPs, not seconds, so these verdicts do not@.\
     depend on the solver's speed or the host. The hill-climbing baseline reaches high@.\
     *query* agreement cheaply everywhere but never certifies a key, so@.\
     the exact-attack columns are the security signal. Redacting onto a@.\
     well-utilized fabric keeps every configured bit meaningful, the@.\
     direction Eq. 1 encodes.@."

(* ------------------------------------------------------------------ *)
(* Overheads: the paper's "area/time/power overheads are in line with  *)
(* previous studies" remark, quantified per chosen eFPGA               *)
(* ------------------------------------------------------------------ *)

let run_overhead () =
  section "Overheads of the chosen eFPGAs vs an ASIC implementation";
  Format.printf "%-22s %10s %10s %10s@." "eFPGA (design/fabric)" "area x"
    "delay x" "power x";
  let analyze design_name (flow : A.Flow.t) =
    match flow.A.Flow.selection.A.Selection.best with
    | None -> ()
    | Some best ->
      List.iter
        (fun (e : A.Selection.efpga_impl) ->
          let impl = e.A.Selection.impl in
          let mapped = e.A.Selection.mapped in
          let placement = impl.F.Size_search.placement in
          (* ASIC reference: a 4-LUT covers about two NAND2-equivalents *)
          let asic_gates = N.Stats.logic_gate_count mapped * 2 in
          let area_ratio =
            F.Area.fabric_area impl.F.Size_search.fabric
            /. Float.max 1.0 (F.Area.asic_area ~gates:asic_gates)
          in
          let t = F.Timing.estimate placement mapped in
          let delay_ratio =
            t.F.Timing.critical_path_ns
            /. Float.max 0.001 (F.Timing.asic_reference_ns mapped)
          in
          let fabric_power =
            F.Power.estimate ~vectors:128
              ~wirelength_of:(F.Power.placed_wirelength placement) mapped
          in
          let asic_power = F.Power.estimate ~vectors:128 mapped in
          let power_ratio =
            fabric_power.F.Power.weighted_activity
            /. Float.max 0.001 asic_power.F.Power.weighted_activity
          in
          Format.printf "%-22s %10.1f %10.1f %10.1f@."
            (Printf.sprintf "%s/%s" design_name
               (F.Fabric.size_label impl.F.Size_search.fabric))
            area_ratio delay_ratio power_ratio)
        best.A.Selection.efpgas
  in
  List.iter
    (fun name ->
      let b = Option.get (B.find name) in
      analyze name (run_flow ~config:(B.config1 b) (B.parse b)))
    [ "GCD"; "SASC"; "USB_PHY"; "FIR" ];
  Format.printf
    "@.Reading: for blocks this small, soft-fabric redaction costs two to@.     three orders of magnitude in area, roughly 10x in delay, and@.     several-fold in switched capacitance relative to standard cells —@.     in line with previous eFPGA-redaction studies; as the paper notes,@.     the overheads depend on the fabric, not on which modules fill it.@."

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices                                     *)
(* ------------------------------------------------------------------ *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run_ablation () =
  section "Ablation 1: score formula (utilization reward vs literal Eq. 1 penalty)";
  let describe flow =
    match flow.A.Flow.selection.A.Selection.best with
    | None -> "no solution"
    | Some best ->
      Printf.sprintf "%s, %d redacted"
        (String.concat " + "
           (List.map
              (fun (e : A.Selection.efpga_impl) ->
                F.Fabric.size_label e.impl.F.Size_search.fabric)
              best.A.Selection.efpgas))
        best.A.Selection.redacted_instances
  in
  List.iter
    (fun (name, label, cfg_of) ->
      let b = Option.get (B.find name) in
      let ast = B.parse b in
      let base : C.Flow_config.t = cfg_of b in
      let reward =
        run_flow ~config:{ base with C.Flow_config.score_formula = C.Flow_config.Reward } ast
      in
      let penalty =
        run_flow ~config:{ base with C.Flow_config.score_formula = C.Flow_config.Penalty } ast
      in
      Format.printf "%-10s reward: %-28s penalty: %s@." label (describe reward)
        (describe penalty))
    [ ("GCD", "GCD/cfg1", B.config1); ("GCD", "GCD/cfg2", B.config2);
      ("IIR", "IIR/cfg2", B.config2); ("FIR", "FIR/cfg2", B.config2) ];
  Format.printf
    "(the paper's GCD/cfg1 and IIR/cfg2 rows match the penalty reading,@.\
    \ its DES3/FIR/GCD-cfg2 rows the reward reading — see EXPERIMENTS.md)@.";

  section "Ablation 2: Eq. 1 weights on GCD/cfg2";
  let gcd = Option.get (B.find "GCD") in
  let ast = B.parse gcd in
  List.iter
    (fun (alpha, beta) ->
      let cfg = { (B.config2 gcd) with C.Flow_config.alpha; beta } in
      let flow = run_flow ~config:cfg ast in
      Format.printf "  alpha=%.1f beta=%.1f -> %s@." alpha beta (describe flow))
    [ (1.0, 1.0); (2.0, 1.0); (1.0, 2.0); (1.0, 0.0); (0.0, 1.0) ];

  section "Ablation 3: selection time scales with the number of candidates";
  (* sweep the I/O limit: more admissible clusters, more CreateEFPGA runs *)
  List.iter
    (fun pins ->
      let cfg = { (B.config2 gcd) with C.Flow_config.max_io_pins = pins } in
      let flow, seconds = time (fun () -> run_flow ~config:cfg ast) in
      Format.printf "  max pins %3d: |C|=%3d valid=%3d selection %.2fs (total %.2fs)@."
        pins
        (List.length flow.A.Flow.clusters)
        (A.Flow.valid_efpga_count flow)
        flow.A.Flow.times.A.Flow.selection_s seconds)
    [ 32; 48; 64; 80; 96; 128 ];

  section "Ablation 4: fixed-point clustering vs direct subset enumeration";
  let b = gcd in
  let design = B.elaborate b in
  let df = Alice_analysis.Dataflow.build design in
  let cfg = B.config2 b in
  let filt = A.Filtering.run df cfg in
  let fixed, t_fixed = time (fun () -> A.Clustering.run df cfg filt) in
  let enum, t_enum =
    time (fun () ->
        let candidates = Array.of_list (A.Filtering.candidate_instances filt) in
        let n = Array.length candidates in
        let out = ref [] in
        for mask = 1 to (1 lsl n) - 1 do
          let members = ref [] in
          for i = 0 to n - 1 do
            if (mask lsr i) land 1 = 1 then members := candidates.(i) :: !members
          done;
          let cl = A.Clustering.make_cluster design !members in
          if
            A.Clustering.check_parameters cfg cl
            && A.Clustering.cluster_independent cfg df cl
          then out := cl :: !out
        done;
        !out)
  in
  Format.printf "  fixed point: %d clusters in %.4fs@." (List.length fixed) t_fixed;
  Format.printf "  enumeration: %d clusters in %.4fs (2^%d subsets)@."
    (List.length enum) t_enum
    (List.length (A.Filtering.candidate_instances filt));
  let keys l = List.sort compare (List.map (fun (c : A.Clustering.cluster) -> c.A.Clustering.key) l) in
  Format.printf "  result sets identical: %b@." (keys fixed = keys enum);

  section "Ablation 5: placement effort (greedy hill climb vs annealing)";
  List.iter
    (fun (bench, module_name, w) ->
      let bm = Option.get (B.find bench) in
      let design = B.elaborate bm in
      let mapped, _ =
        Alice_netlist.Lutmap.map ~k:4
          (Alice_netlist.Synth.synthesize_module design module_name)
      in
      let fabric = F.Fabric.make F.Arch.default w in
      let g, tg = time (fun () -> F.Place.place ~effort:`Greedy fabric mapped) in
      let a, ta = time (fun () -> F.Place.place ~effort:`Anneal fabric mapped) in
      Format.printf
        "  %-18s %dx%d: greedy HPWL %7.0f (%5.2fs)   anneal HPWL %7.0f (%5.2fs)  %+.0f%%@."
        (bench ^ "/" ^ module_name) w w g.F.Place.wirelength tg
        a.F.Place.wirelength ta
        (100.0 *. (a.F.Place.wirelength -. g.F.Place.wirelength)
         /. Float.max 1.0 g.F.Place.wirelength))
    [ ("GCD", "subtractor", 6); ("SASC", "sasc_fifo", 8); ("SHA256", "kconst_rom", 13) ]

(* ------------------------------------------------------------------ *)
(* SoC context: Section 7's remark that GCD's fabrics dominate its     *)
(* tiny die but fade inside a larger system (PicoSoC in [4])           *)
(* ------------------------------------------------------------------ *)

let run_soc () =
  section "SoC context: fabric area share, GCD standalone vs inside a SoC";
  let share name ast top selected =
    let cfg =
      { C.Flow_config.cfg1 with
        C.Flow_config.selected_outputs = selected; top = Some top;
        min_fabric_size = 4; max_fabric_size = 20; target_utilization = 0.5;
        min_clb_utilization = 0.3 }
    in
    let flow = run_flow ~config:cfg ast in
    match flow.A.Flow.selection.A.Selection.best with
    | None -> Format.printf "%-12s no solution@." name
    | Some best ->
      let fabrics =
        List.map
          (fun (e : A.Selection.efpga_impl) -> e.impl.F.Size_search.fabric)
          best.A.Selection.efpgas
      in
      let fabric_area =
        List.fold_left (fun acc f -> acc +. F.Area.fabric_area f) 0.0 fabrics
      in
      let asic_gates =
        match A.Flow.redact ~view:A.Redact.Opaque flow with
        | None -> 0
        | Some r ->
          let rast = V.Parser.parse r.A.Redact.verilog in
          N.Stats.logic_gate_count
            (N.Synth.synthesize (V.Elaborate.elaborate ~top rast))
      in
      let total = fabric_area +. F.Area.asic_area ~gates:asic_gates in
      Format.printf "%-12s eFPGAs %-12s total %8.0f um^2, fabric share %3.0f%%@."
        name
        (String.concat "+" (List.map F.Fabric.size_label fabrics))
        total
        (100.0 *. fabric_area /. total)
  in
  let gcd = Option.get (B.find "GCD") in
  share "GCD alone" (B.parse gcd) "gcd" [ "result" ];
  let soc_ast =
    V.Parser.parse ~file:"soc.v" Alice_benchmarks.Soc.source
  in
  share "GCD in SoC" soc_ast Alice_benchmarks.Soc.top
    Alice_benchmarks.Soc.selected_outputs;
  Format.printf
    "@.Reading: the flow picks the same fabrics in both contexts, but@.\
     their share of the die falls as the surrounding system grows (and@.\
     keeps falling toward PicoSoC scale) — the paper's closing@.\
     observation about integration.@."

(* ------------------------------------------------------------------ *)
(* Parallel characterization: serial vs Domain-pool wall clock on the  *)
(* SoC benchmark (the largest cluster set in the suite)                *)
(* ------------------------------------------------------------------ *)

let run_parallel () =
  section "Parallel characterization: serial vs domain pool on the SoC";
  let ast = V.Parser.parse ~file:"soc.v" Alice_benchmarks.Soc.source in
  let cfg =
    { C.Flow_config.cfg1 with
      C.Flow_config.selected_outputs = Alice_benchmarks.Soc.selected_outputs;
      top = Some Alice_benchmarks.Soc.top;
      min_fabric_size = 4; max_fabric_size = 20; target_utilization = 0.5;
      min_clb_utilization = 0.3 }
  in
  let design = V.Elaborate.elaborate ~top:Alice_benchmarks.Soc.top ast in
  let df = Alice_analysis.Dataflow.build design in
  let filt = A.Filtering.run df cfg in
  let clusters = A.Clustering.run df cfg filt in
  let unique_multisets =
    List.sort_uniq compare
      (List.map
         (fun (c : A.Clustering.cluster) ->
           c.A.Clustering.members
           |> List.map (fun (m : V.Design.tree) -> m.V.Design.module_name)
           |> List.sort compare |> String.concat "|")
         clusters)
  in
  Format.printf "clusters %d, unique module multisets %d (one CreateEFPGA each)@."
    (List.length clusters)
    (List.length unique_multisets);
  (* timing-free projection: cluster identity plus everything the
     outcome decides *)
  let sig_of results =
    List.map
      (fun (c : A.Characterize.characterization) ->
        let label =
          match c.A.Characterize.outcome with
          | A.Characterize.Implemented impl ->
            "impl:" ^ F.Fabric.size_label impl.F.Size_search.fabric
          | A.Characterize.Infeasible f ->
            "infeasible:" ^ F.Size_search.failure_to_string f
          | A.Characterize.Failed d -> "failed:" ^ Alice_diag.Diag.to_string d
          | A.Characterize.Skipped d -> "skipped:" ^ Alice_diag.Diag.to_string d
        in
        (c.A.Characterize.cluster.A.Clustering.key, label))
      results
  in
  let characterize jobs () =
    fst (A.Characterize.run_all_stats ~jobs design cfg clusters)
  in
  let serial, t_serial = time (characterize 1) in
  let default_jobs = Domain.recommended_domain_count () in
  let default_run, t_default = time (characterize default_jobs) in
  let over, t_over = time (characterize 4) in
  Format.printf "  serial  (jobs=1):          %6.2fs@." t_serial;
  Format.printf "  pool    (jobs=%d, default): %6.2fs   ratio serial/pool %.2fx@."
    default_jobs t_default
    (t_serial /. Float.max 1e-9 t_default);
  Format.printf "  pool    (jobs=4, forced):  %6.2fs@." t_over;
  Format.printf "  results identical across all three: %b@."
    (sig_of serial = sig_of default_run && sig_of serial = sig_of over);
  Format.printf
    "(the default pool is sized to the machine; forcing jobs=4 on fewer@.\
    \ cores oversubscribes the domains and only serves as the determinism@.\
    \ check — speedup needs cores, not domains)@."

(* ------------------------------------------------------------------ *)
(* Engine cache: cold vs warm on the SoC                               *)
(* ------------------------------------------------------------------ *)

let run_cache () =
  section "Persistent characterization cache: cold vs warm on the SoC";
  let cfg =
    { C.Flow_config.cfg1 with
      C.Flow_config.selected_outputs = Alice_benchmarks.Soc.selected_outputs;
      top = Some Alice_benchmarks.Soc.top;
      min_fabric_size = 4; max_fabric_size = 20; target_utilization = 0.5;
      min_clb_utilization = 0.3 }
  in
  let request () =
    A.Flow.request ~config:cfg
      (A.Flow.Text { text = Alice_benchmarks.Soc.source; file = Some "soc.v" })
  in
  let root = Filename.temp_file "alice_bench" ".cache" in
  Sys.remove root;
  let line label (flow : A.Flow.t) t =
    let s = flow.A.Flow.char_stats in
    Format.printf "  %-26s %6.2fs   %3d hits, %3d computed, %3d unique@."
      label t s.A.Characterize.cache_hits s.A.Characterize.computed
      s.A.Characterize.unique;
    s
  in
  let cold_engine = A.Engine.create ~cache_dir:root () in
  let cold_flow, t_cold = time (fun () -> A.Engine.run cold_engine (request ())) in
  let _ = line "cold (empty store):" cold_flow t_cold in
  let memo_flow, t_memo = time (fun () -> A.Engine.run cold_engine (request ())) in
  let memo = line "warm (same engine):" memo_flow t_memo in
  let disk_engine = A.Engine.create ~cache_dir:root () in
  let disk_flow, t_disk = time (fun () -> A.Engine.run disk_engine (request ())) in
  let disk = line "warm (new process):" disk_flow t_disk in
  Format.printf "  speedup: %.1fx in-memory, %.1fx from disk@."
    (t_cold /. Float.max 1e-9 t_memo)
    (t_cold /. Float.max 1e-9 t_disk);
  Format.printf "  warm runs recomputed nothing: %b@."
    (memo.A.Characterize.computed = 0 && disk.A.Characterize.computed = 0);
  note_f "cold_s" t_cold;
  note_f "warm_memory_s" t_memo;
  note_f "warm_disk_s" t_disk;
  note_f "speedup_memory" (t_cold /. Float.max 1e-9 t_memo);
  note_f "speedup_disk" (t_cold /. Float.max 1e-9 t_disk);
  note_i "unique_characterizations" disk.A.Characterize.unique;
  note_f "warm_disk_hit_rate"
    (float disk.A.Characterize.cache_hits
    /. Float.max 1.0 (float disk.A.Characterize.unique));
  let score (f : A.Flow.t) =
    Option.map (fun s -> s.A.Selection.total_score)
      f.A.Flow.selection.A.Selection.best
  in
  Format.printf "  selections identical across all three: %b@."
    (score cold_flow = score memo_flow && score cold_flow = score disk_flow);
  (match A.Engine.disk_stats disk_engine with
  | Some s ->
    Format.printf "  store (%s): %d disk hits, %d failures@." root
      s.A.Disk_cache.disk_hits s.A.Disk_cache.failures
  | None -> ())

(* ------------------------------------------------------------------ *)
(* Measured selection: attack-in-the-loop scoring, cold vs warm        *)
(* ------------------------------------------------------------------ *)

let run_attack () =
  section "Measured selection: attack-in-the-loop scoring on GCD (cold vs warm)";
  let gcd = Option.get (B.find "GCD") in
  let ast = B.parse gcd in
  let heuristic_cfg = B.config1 gcd in
  let measured_cfg =
    { heuristic_cfg with
      C.Flow_config.score_mode = C.Flow_config.Measured;
      attack_budget = 2_000; attack_iterations = 16; attack_jobs = 1 }
  in
  let request cfg = A.Flow.request ~config:cfg (A.Flow.Ast ast) in
  let root = Filename.temp_file "alice_bench" ".cache" in
  Sys.remove root;
  let line label (flow : A.Flow.t) t =
    let a = flow.A.Flow.selection.A.Selection.attack in
    Format.printf "  %-26s %6.2fs   %3d run, %3d cached, %3d inconclusive@."
      label t a.A.Selection.Scorer.attacks_run
      a.A.Selection.Scorer.attacks_cached
      a.A.Selection.Scorer.attacks_inconclusive;
    a
  in
  let heur_flow, t_heur =
    time (fun () -> A.Flow.run_request (request heuristic_cfg))
  in
  Format.printf "  %-26s %6.2fs   (no attacks)@." "heuristic baseline:" t_heur;
  let cold_engine = A.Engine.create ~cache_dir:root () in
  let cold_flow, t_cold =
    time (fun () -> A.Engine.run cold_engine (request measured_cfg))
  in
  let cold = line "measured cold:" cold_flow t_cold in
  (* a fresh engine over the same store: a second process *)
  let warm_engine = A.Engine.create ~cache_dir:root () in
  let warm_flow, t_warm =
    time (fun () -> A.Engine.run warm_engine (request measured_cfg))
  in
  let warm = line "measured warm (new engine):" warm_flow t_warm in
  let run = cold.A.Selection.Scorer.attacks_run in
  Format.printf "  per-verdict attack cost: %.3fs over %d verdicts@."
    ((t_cold -. t_heur) /. Float.max 1.0 (float run)) run;
  Format.printf "  warm run re-attacked nothing: %b@."
    (warm.A.Selection.Scorer.attacks_run = 0);
  let total_conflicts =
    List.fold_left
      (fun acc (e : A.Selection.efpga_impl) ->
        match e.A.Selection.verdict with
        | Some v -> acc + v.A.Selection.Scorer.v_conflicts
        | None -> acc)
      0 cold_flow.A.Flow.selection.A.Selection.valid
  in
  Format.printf "  solver conflicts: %d, %d learnt reused@." total_conflicts
    cold.A.Selection.Scorer.attacks_reused;
  (* the point of measuring: the ranking moves *)
  let ranking (f : A.Flow.t) =
    List.map
      (fun (s : A.Selection.solution) ->
        String.concat "+"
          (List.map
             (fun (e : A.Selection.efpga_impl) ->
               F.Fabric.size_label e.impl.F.Size_search.fabric)
             s.A.Selection.efpgas))
      f.A.Flow.selection.A.Selection.solutions
  in
  Format.printf "  measured ranking diverges from Eq. 1: %b@."
    (ranking heur_flow <> ranking cold_flow);
  note_f "heuristic_s" t_heur;
  note_f "measured_cold_s" t_cold;
  note_f "measured_warm_s" t_warm;
  note_i "attacks_run_cold" run;
  note_i "attacks_inconclusive" cold.A.Selection.Scorer.attacks_inconclusive;
  note_i "attacks_run_warm" warm.A.Selection.Scorer.attacks_run;
  note_f "warm_hit_rate"
    (float warm.A.Selection.Scorer.attacks_cached
    /. Float.max 1.0 (float run));
  note_f "per_verdict_s" ((t_cold -. t_heur) /. Float.max 1.0 (float run));
  note_i "total_conflicts_cold" total_conflicts;
  note_i "learnt_reused_cold" cold.A.Selection.Scorer.attacks_reused;
  note "diverges_from_eq1" (Jl.Bool (ranking heur_flow <> ranking cold_flow))

(* ------------------------------------------------------------------ *)
(* Advisor: Pareto-front exploration on GCD, cold vs warm              *)
(* ------------------------------------------------------------------ *)

let run_advise () =
  section "advisor: pre-architecture Pareto sweep on GCD (cold vs warm)";
  let gcd = Option.get (B.find "GCD") in
  let base = B.config1 gcd in
  let axes =
    { A.Advisor.ax_lut_inputs = [ 4; 6 ]; ax_max_widths = [ 8; 12 ];
      ax_utilizations = [ base.C.Flow_config.target_utilization ];
      ax_attack_budgets = [ base.C.Flow_config.attack_budget ];
      ax_score_modes = [ C.Flow_config.Heuristic ] }
  in
  let plan = A.Advisor.plan ~base ~axes in
  Format.printf "  grid: %d candidates (%d deduplicated)@."
    (List.length plan.A.Advisor.pl_grid) plan.A.Advisor.pl_deduped;
  let root = Filename.temp_file "alice_bench" ".cache" in
  Sys.remove root;
  let source = A.Flow.Ast (B.parse gcd) in
  let advise label =
    let engine = A.Engine.create ~cache_dir:root () in
    let resumed = ref 0 in
    let on_point (sp : A.Engine.sweep_point) =
      if sp.A.Engine.sp_resumed then incr resumed
    in
    let report, t = time (fun () -> A.Advisor.run ~on_point engine ~source plan) in
    Format.printf "  %-22s %6.2fs   front %d of %d, %d resumed@." label t
      (List.length report.A.Advisor.r_front)
      (List.length report.A.Advisor.r_entries)
      !resumed;
    (report, t, !resumed)
  in
  let cold, t_cold, _ = advise "cold (empty store):" in
  (* a fresh engine over the same store: a second process *)
  let warm, t_warm, warm_resumed = advise "warm (new engine):" in
  let json r = Jl.to_string (A.Advisor.json_of_report r) in
  Format.printf "  warm resumed every candidate: %b@."
    (warm_resumed = List.length plan.A.Advisor.pl_grid);
  Format.printf "  warm report byte-identical to cold: %b@."
    (json cold = json warm);
  (match cold.A.Advisor.r_front with
  | (best : A.Advisor.entry) :: _ ->
    (match best.A.Advisor.e_point.A.Engine.sp_metrics with
    | Some m ->
      Format.printf
        "  recommendation: %s — area %.0f um^2, path %.2f ns, security %.3f@."
        best.A.Advisor.e_name m.A.Engine.pm_area_um2 m.A.Engine.pm_timing_ns
        m.A.Engine.pm_security
    | None -> ())
  | [] -> Format.printf "  (empty front)@.");
  note_f "cold_s" t_cold;
  note_f "warm_s" t_warm;
  note_f "speedup_warm" (t_cold /. Float.max 1e-9 t_warm);
  note_i "candidates" (List.length plan.A.Advisor.pl_grid);
  note_i "deduped" plan.A.Advisor.pl_deduped;
  note_i "front" (List.length cold.A.Advisor.r_front);
  note_i "warm_resumed" warm_resumed;
  note "warm_byte_identical" (Jl.Bool (json cold = json warm))

(* ------------------------------------------------------------------ *)
(* Redaction service: warm-cache round-trip throughput and latency     *)
(* ------------------------------------------------------------------ *)

let run_server () =
  section "server: warm-cache request round trips (in-process daemon)";
  let module S = Alice_server in
  let module Y = C.Yaml_lite in
  let gcd = Option.get (B.find "GCD") in
  let socket = Filename.temp_file "alice_bench" ".sock" in
  Sys.remove socket;
  let cfg =
    { (S.Server.default_config ~socket_path:socket) with
      S.Server.base =
        Y.parse "top: gcd\nselected_outputs:\n  - result\njobs: 1" }
  in
  let t = S.Server.start ~engine:(A.Engine.create ~cache:false ()) cfg in
  Fun.protect
    ~finally:(fun () -> S.Server.stop t; S.Server.wait t)
    (fun () ->
      let conn = S.Client.connect ~socket () in
      Fun.protect ~finally:(fun () -> S.Client.close conn) (fun () ->
          let redact_line =
            S.Protocol.redact_request (S.Protocol.Inline gcd.B.source)
          in
          (* populate the shared engine so the measured passes are warm *)
          ignore (S.Client.rpc conn redact_line);
          let rounds = 50 in
          let lat_ping = Array.make rounds 0.0
          and lat_redact = Array.make rounds 0.0 in
          let t0 = Unix.gettimeofday () in
          for i = 0 to rounds - 1 do
            let a = Unix.gettimeofday () in
            ignore (S.Client.rpc conn (S.Protocol.ping_request ()));
            let b = Unix.gettimeofday () in
            ignore (S.Client.rpc conn redact_line);
            let c = Unix.gettimeofday () in
            lat_ping.(i) <- b -. a;
            lat_redact.(i) <- c -. b
          done;
          let wall = Unix.gettimeofday () -. t0 in
          let pctl a q =
            Array.sort compare a;
            a.(Int.min (Array.length a - 1)
                 (int_of_float (q *. float (Array.length a))))
          in
          Format.printf
            "  %d ping+redact round trips in %.2fs: %.0f requests/s@." rounds
            wall (float (2 * rounds) /. wall);
          Format.printf "  ping   p50 %6.2f ms   p95 %6.2f ms@."
            (1e3 *. pctl lat_ping 0.50) (1e3 *. pctl lat_ping 0.95);
          Format.printf "  redact p50 %6.2f ms   p95 %6.2f ms (warm cache)@."
            (1e3 *. pctl lat_redact 0.50) (1e3 *. pctl lat_redact 0.95);
          (* the server's own histogram agrees on the volume *)
          let s = S.Metrics.snapshot (S.Server.metrics t) in
          Format.printf
            "  server histogram: %d completed, p95 <= %.2f ms, cache %d hits / %d computed@."
            s.S.Metrics.completed
            (1e3 *. S.Metrics.quantile s 0.95)
            s.S.Metrics.cache_hits s.S.Metrics.cache_computed;
          note_f "requests_per_s" (float (2 * rounds) /. wall);
          note_f "ping_p50_ms" (1e3 *. pctl lat_ping 0.50);
          note_f "ping_p95_ms" (1e3 *. pctl lat_ping 0.95);
          note_f "redact_p50_ms" (1e3 *. pctl lat_redact 0.50);
          note_f "redact_p95_ms" (1e3 *. pctl lat_redact 0.95);
          note_i "completed" s.S.Metrics.completed;
          note_i "cache_hits" s.S.Metrics.cache_hits;
          note_i "cache_computed" s.S.Metrics.cache_computed;
          note_f "cache_hit_rate"
            (float s.S.Metrics.cache_hits
            /. Float.max 1.0
                 (float (s.S.Metrics.cache_hits + s.S.Metrics.cache_computed)))))

(* ------------------------------------------------------------------ *)
(* Mixed load: cheap-lane latency under heavy saturation, both         *)
(* transports                                                          *)
(* ------------------------------------------------------------------ *)

let run_mixed () =
  section
    "mixed: cheap-op latency under heavy-op saturation (unix + tcp \
     transports)";
  let module S = Alice_server in
  let module Y = C.Yaml_lite in
  let gcd = Option.get (B.find "GCD") in
  let redact_line =
    S.Protocol.redact_request (S.Protocol.Inline gcd.B.source)
  in
  let pctl a q =
    Array.sort compare a;
    a.(Int.min (Array.length a - 1) (int_of_float (q *. float (Array.length a))))
  in
  (* an idle p95 below this is measurement noise; the 10x starvation
     bound is taken against max(idle, floor) so a sub-millisecond idle
     baseline cannot turn scheduler jitter into a failure *)
  let idle_floor_s = 0.001 in
  let all_bounded = ref true in
  let all_quantiles_sane = ref true in
  let transport (label, listen) =
    let cfg =
      { (S.Server.default_config ~socket_path:"/unused") with
        S.Server.listen = [ listen ]; max_in_flight = 4; max_queue = 64;
        base = Y.parse "top: gcd\nselected_outputs:\n  - result\njobs: 1" }
    in
    let t = S.Server.start ~engine:(A.Engine.create ~cache:false ()) cfg in
    Fun.protect
      ~finally:(fun () -> S.Server.stop t; S.Server.wait t)
      (fun () ->
        let socket = S.Endpoint.to_string (List.hd (S.Server.endpoints t)) in
        (* connection-per-ping, like a health checker: a persistent
           cheap connection would pin the reserved worker and shut
           every later ping out *)
        let ping_once () =
          let a = Unix.gettimeofday () in
          ignore (S.Client.one_shot ~socket (S.Protocol.ping_request ()));
          Unix.gettimeofday () -. a
        in
        (* warm the shared engine so heavy traffic is steady-state *)
        ignore (S.Client.one_shot ~socket redact_line);
        let rounds = 30 in
        let idle = Array.init rounds (fun _ -> ping_once ()) in
        let idle_p95 = pctl idle 0.95 in
        (* saturate the heavy lane: more concurrent redact loops than
           there are general workers *)
        let stop = Atomic.make false in
        let heavies =
          List.init 6 (fun _ ->
              Thread.create
                (fun () ->
                  while not (Atomic.get stop) do
                    try ignore (S.Client.one_shot ~socket redact_line)
                    with _ -> ()
                  done)
                ())
        in
        Unix.sleepf 0.3;
        let loaded = Array.init rounds (fun _ -> ping_once ()) in
        Atomic.set stop true;
        List.iter Thread.join heavies;
        let loaded_p95 = pctl loaded 0.95 in
        let baseline = Float.max idle_p95 idle_floor_s in
        let ratio = loaded_p95 /. baseline in
        let bounded = loaded_p95 <= 10.0 *. baseline in
        let s = S.Metrics.snapshot (S.Server.metrics t) in
        let quantiles_sane =
          List.for_all
            (fun q ->
              S.Metrics.quantile s q <= s.S.Metrics.latency_max_s +. 1e-9)
            [ 0.5; 0.9; 0.95; 0.99 ]
        in
        Format.printf
          "  %-5s ping p95 %6.2f ms idle, %6.2f ms under saturation \
           (%.1fx of baseline, bound 10x: %s)@."
          label (1e3 *. idle_p95) (1e3 *. loaded_p95) ratio
          (if bounded then "ok" else "EXCEEDED");
        Format.printf
          "  %-5s server histogram: %d completed, every quantile <= max: %b@."
          label s.S.Metrics.completed quantiles_sane;
        note_f (label ^ "_idle_ping_p95_ms") (1e3 *. idle_p95);
        note_f (label ^ "_loaded_ping_p95_ms") (1e3 *. loaded_p95);
        note_f (label ^ "_p95_ratio") ratio;
        note (label ^ "_cheap_p95_bound_ok") (Jl.Bool bounded);
        all_bounded := !all_bounded && bounded;
        all_quantiles_sane := !all_quantiles_sane && quantiles_sane)
  in
  let unix_socket = Filename.temp_file "alice_bench" ".sock" in
  Sys.remove unix_socket;
  List.iter transport
    [ ("unix", S.Endpoint.Unix_path unix_socket);
      ("tcp", S.Endpoint.Tcp { host = "127.0.0.1"; port = 0 }) ];
  note "cheap_p95_bound_ok" (Jl.Bool !all_bounded);
  note "quantile_le_max_ok" (Jl.Bool !all_quantiles_sane)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure           *)
(* ------------------------------------------------------------------ *)

let run_micro () =
  section "Bechamel micro-benchmarks (kernel of each table/figure)";
  let open Bechamel in
  let gcd = Option.get (B.find "GCD") in
  let gcd_ast = B.parse gcd in
  let sasc = Option.get (B.find "SASC") in
  let sasc_ast = B.parse sasc in
  let gcd_design = B.elaborate gcd in
  let mapped, _ =
    N.Lutmap.map ~k:4 (N.Synth.synthesize_module gcd_design "is_zero")
  in
  let soc_bench = Option.get (B.find "SOC") in
  let soc = N.Synth.synthesize (B.elaborate soc_bench) in
  (* every implemented SoC cfg1 cluster at its final width *)
  let soc_placements =
    List.filter_map
      (fun (ch : A.Characterize.characterization) ->
        match (ch.A.Characterize.outcome, ch.A.Characterize.mapped) with
        | A.Characterize.Implemented impl, Some m ->
          let fabric = impl.F.Size_search.fabric in
          Some (fabric, m, F.Place.pack fabric.F.Fabric.arch m)
        | _ -> None)
      (run_flow ~config:(B.config1 soc_bench) (B.parse soc_bench)).A.Flow.characterized
  in
  let tests =
    [ (* Table 1 kernel: parse + elaborate + characteristics *)
      Test.make ~name:"table1_elaborate_gcd"
        (Staged.stage (fun () ->
             let d = V.Elaborate.elaborate ~top:"gcd" gcd_ast in
             ignore (Alice_analysis.Iocount.summarize d)));
      (* Table 2 kernels: one full flow per configuration *)
      Test.make ~name:"table2_flow_gcd_cfg1"
        (Staged.stage (fun () -> ignore (run_flow ~config:(B.config1 gcd) gcd_ast)));
      Test.make ~name:"table2_flow_sasc_cfg2"
        (Staged.stage (fun () -> ignore (run_flow ~config:(B.config2 sasc) sasc_ast)));
      (* CreateEFPGA's LUT-mapping kernel, at the paper's k and the
         advisor's larger one *)
      Test.make ~name:"lutmap_soc_k4"
        (Staged.stage (fun () -> ignore (N.Lutmap.map ~k:4 soc)));
      Test.make ~name:"lutmap_soc_k6"
        (Staged.stage (fun () -> ignore (N.Lutmap.map ~k:6 soc)));
      (* CreateEFPGA's final-width placement *)
      Test.make ~name:"place_soc"
        (Staged.stage (fun () ->
             List.iter
               (fun (fabric, m, clusters) -> ignore (F.Place.place_packed fabric m clusters))
               soc_placements));
      (* Figure 4 kernel: fabric area evaluation *)
      Test.make ~name:"figure4_area_model"
        (Staged.stage (fun () ->
             ignore
               (F.Area.solution_area ~asic_gates:1000
                  [ F.Fabric.make F.Arch.default 4; F.Fabric.make F.Arch.default 5 ])));
      (* security kernel: one SAT-attack run on a small candidate *)
      Test.make ~name:"security_attack_is_zero"
        (Staged.stage (fun () ->
             let locked = Sec.Locked.of_mapped mapped in
             let oracle = Sec.Locked.make_oracle locked in
             ignore
               (Sec.Sat_attack.attack
                  ~budget:{ Sec.Sat_attack.max_iterations = 64;
                            max_seconds = infinity; solver_conflicts = None }
                  locked ~oracle))) ]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~kde:None () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun name raw ->
          let stats =
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false
                 ~predictors:[| Measure.run |])
              (Toolkit.Instance.monotonic_clock) raw
          in
          match Analyze.OLS.estimates stats with
          | Some [ est ] ->
            Format.printf "  %-28s %14.0f ns/run@." name est;
            note_f (name ^ "_ns") est
          | Some _ | None -> Format.printf "  %-28s (no estimate)@." name)
        results)
    tests

(* ------------------------------------------------------------------ *)

let all_sections =
  [ ("table1", run_table1);
    ("table2", fun () -> ignore (run_table2 ()));
    ("figure4", run_figure4);
    ("security", run_security);
    ("overhead", run_overhead);
    ("soc", run_soc);
    ("ablation", run_ablation);
    ("parallel", run_parallel);
    ("cache", run_cache);
    ("attack", run_attack);
    ("advise", run_advise);
    ("server", run_server);
    ("mixed", run_mixed);
    ("micro", run_micro) ]

let () =
  let t0 = Unix.gettimeofday () in
  let timed (name, f) =
    let s0 = Unix.gettimeofday () in
    f ();
    record_section name (Unix.gettimeofday () -. s0)
  in
  (* the named sections in order; everything when none is named *)
  (match List.tl (Array.to_list Sys.argv) with
  | [] | [ "all" ] -> List.iter timed all_sections
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name all_sections with
        | Some f -> timed (name, f)
        | None ->
          Format.eprintf "unknown section %s; sections: %s@." name
            (String.concat " " (List.map fst all_sections));
          exit 2)
      names);
  let wall_s = Unix.gettimeofday () -. t0 in
  write_snapshot ~wall_s;
  Format.printf "@.bench done in %.1fs@." wall_s
