(* ALICE benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 7), runs the ablations DESIGN.md calls
   out, and holds the service's mixed-load latency gate.

     dune exec bench/main.exe               # everything
     dune exec bench/main.exe table2        # one section
     dune exec bench/main.exe table1 soc    # several, in order
     sections: table1 table2 figure4 security overhead soc ablation mixed

   Paper reference values are printed next to the measured ones so the
   output doubles as the data source for EXPERIMENTS.md. Throughput and
   cache behaviour of the cached, measured, advised and served paths
   are bench/perf's workloads, not sections here.

   Besides the console report, every run writes BENCH_<rev>.json into
   the working directory (rev = `git rev-parse --short HEAD`, suffixed
   -dirty when tracked files differ from it, or "dev" outside a
   checkout): per-section wall times plus each section's key scalars,
   so a snapshot per revision can be committed and diffed. *)

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

(* (section, seconds + notes) rows in run order *)
let recorded : (string * Jl.t) list ref = ref []

let record_section name seconds =
  recorded :=
    !recorded @ [ (name, Jl.Obj (("seconds", Jl.Float seconds) :: !section_notes)) ];
  section_notes := []

(* the trimmed output of [git args], or [None] when it fails *)
let git args =
  match Unix.open_process_in ("git " ^ args ^ " 2>/dev/null") with
  | exception _ -> None
  | ic ->
    let out = String.trim (In_channel.input_all ic) in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> Some out
    | _ | (exception _) -> None)

(* HEAD's short hash and whether tracked files differ from it: the
   times of an uncommitted tree must not be filed under its parent *)
let git_rev () =
  match git "rev-parse --short HEAD" with
  | Some rev when rev <> "" ->
    (rev, git "status --porcelain --untracked-files=no" <> Some "")
  | _ -> ("dev", false)

let write_snapshot ~wall_s =
  let rev, dirty = git_rev () in
  let path =
    Printf.sprintf "BENCH_%s%s.json" rev (if dirty then "-dirty" else "")
  in
  let doc =
    Jl.Obj
      [ ("rev", Jl.String rev);
        ("dirty", Jl.Bool dirty);
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
  List.iter
    (fun (b : B.benchmark) ->
      let flow = run_flow ~config:(config_of b) (B.parse b) in
      Format.printf "%a%!" A.Report.pp_table2_row
        (A.Report.row_of_flow ~design_name:b.B.name flow))
    B.all;
  Format.printf "paper reference (structural columns):@.";
  List.iter
    (fun (name, r, c, valid, s, sizes, redacted) ->
      Format.printf "  %-8s |R|=%-3d |C|=%-4s valid=%-4s |S|=%-5s %-12s redacted=%s@."
        name r (opt_str c) (opt_str valid) (opt_str s) sizes (opt_str redacted))
    paper

let run_table2 () =
  section "Table 2: ALICE under the two configurations";
  run_table2_config "cfg1: 64 I/O pins and 2 eFPGAs" B.config1 paper_table2_cfg1;
  run_table2_config "cfg2: 96 I/O pins and 1 eFPGA" B.config2 paper_table2_cfg2

(* ------------------------------------------------------------------ *)
(* Figure 4: physical area of the two GCD solutions                    *)
(* ------------------------------------------------------------------ *)

(* the die area and fabric labels of a flow's solution *)
let solution_area (flow : A.Flow.t) : float * string =
  match A.Report.solution_area flow with
  | None -> (nan, "-")
  | Some a ->
    ( a.A.Report.sa_asic_um2 +. a.A.Report.sa_fabric_um2,
      String.concat " + " (List.map F.Fabric.size_label a.A.Report.sa_fabrics) )

let run_figure4 () =
  section "Figure 4: physical area of the two GCD solutions (NanGate 45nm model)";
  let gcd = Option.get (B.find "GCD") in
  let ast = B.parse gcd in
  let flow1 = run_flow ~config:(B.config1 gcd) ast in
  let flow2 = run_flow ~config:(B.config2 gcd) ast in
  let a1, s1 = solution_area flow1 in
  let a2, s2 = solution_area flow2 in
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

(* The attack is bounded by work only (DIPs), never by wall clock, so
   the verdicts depend on the candidate alone and not on how fast the
   solver or the host is. *)
let run_security () =
  section "Security ablation: the exact SAT attack per candidate";
  Format.printf "%-18s %6s %9s | %6s %9s %8s %9s@." "candidate" "LUTs"
    "key bits" "DIPs" "conflicts" "time(s)" "SAT";
  let attack_one label mapped =
    let locked = Sec.Locked.of_mapped mapped in
    let oracle = Sec.Locked.make_oracle locked in
    let budget = { Sec.Sat_attack.max_iterations = 200; solver_conflicts = None } in
    let o = Sec.Sat_attack.attack ~budget locked ~oracle in
    let correct =
      match o.Sec.Sat_attack.key with
      | Some key -> Sec.Locked.key_is_correct locked key
      | None -> false
    in
    Format.printf "%-18s %6d %9d | %6d %9d %8.2f %9s@." label
      (N.Circuit.lut_count mapped) o.Sec.Sat_attack.key_bits
      o.Sec.Sat_attack.iterations o.Sec.Sat_attack.conflicts
      o.Sec.Sat_attack.seconds
      (if o.Sec.Sat_attack.status = Sec.Sat_attack.Converged then
         (if correct then "correct" else "WRONG")
       else Sec.Sat_attack.status_to_string o.Sec.Sat_attack.status)
  in
  List.iter
    (fun (label, bench, module_name) ->
      let b = Option.get (B.find bench) in
      let design = B.elaborate b in
      let circuit = N.Synth.synthesize_module design module_name in
      let mapped = N.Lutmap.map ~k:4 circuit in
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
     depend on the solver's speed or the host. Redacting onto a@.\
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
  Format.printf "  result sets identical: %b@." (keys fixed = keys enum)

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
    match A.Report.solution_area (run_flow ~config:cfg ast) with
    | None -> Format.printf "%-12s no solution@." name
    | Some a ->
      let total = a.A.Report.sa_fabric_um2 +. a.A.Report.sa_asic_um2 in
      Format.printf "%-12s eFPGAs %-12s total %8.0f um^2, fabric share %3.0f%%@."
        name
        (String.concat "+" (List.map F.Fabric.size_label a.A.Report.sa_fabrics))
        total
        (100.0 *. a.A.Report.sa_fabric_um2 /. total)
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
(* Mixed load: cheap-op latency under heavy saturation, both           *)
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
        (* connection-per-ping, like a health checker: each ping pays a
           connect and a connection thread's start *)
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
        (* saturate the execution slots: more concurrent redact loops
           than there are heavy slots *)
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

let all_sections =
  [ ("table1", run_table1);
    ("table2", run_table2);
    ("figure4", run_figure4);
    ("security", run_security);
    ("overhead", run_overhead);
    ("soc", run_soc);
    ("ablation", run_ablation);
    ("mixed", run_mixed) ]

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
