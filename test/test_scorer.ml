(* The Scorer seam of selection: Eq. 1 degenerate-maxima guard,
   attack-verdict cache keying, cold/warm verdict reuse through the
   engine (zero solver calls on warm), budget-change invalidation,
   measured-vs-heuristic ranking divergence on a bundled benchmark, and
   determinism of the measured ranking across attack_jobs. *)

module A = Alice
module B = Alice_benchmarks.Suite
module C = Alice_config
module F = Alice_fabric
module Sat = Alice_sat

let tmp_root () =
  let f = Filename.temp_file "alice_scorer" ".cache" in
  Sys.remove f;
  f

(* small three-module design: cheap to characterize AND to attack *)
let demo_src = {|module f1 (input [7:0] a, output [7:0] y); assign y = a + 8'h1; endmodule
  module f2 (input [7:0] a, output [7:0] y); assign y = a ^ 8'h55; endmodule
  module f3 (input [7:0] a, output [7:0] y); assign y = {a[0], a[7:1]}; endmodule
  module top (input [7:0] x, output [7:0] out1, output [7:0] out2);
    wire [7:0] t;
    f1 u1 (.a(x), .y(t));
    f2 u2 (.a(t), .y(out1));
    f3 u3 (.a(x), .y(out2));
  endmodule|}

let demo_cfg =
  { C.Flow_config.default with
    C.Flow_config.max_io_pins = 40; max_efpgas = 2;
    selected_outputs = [ "out1"; "out2" ];
    min_fabric_size = 2; max_fabric_size = 12 }

let measured_cfg =
  { demo_cfg with
    C.Flow_config.score_mode = C.Flow_config.Measured;
    attack_budget = 2_000; attack_iterations = 16; attack_jobs = 1 }

let demo_request cfg =
  A.Flow.request ~config:cfg
    (A.Flow.Text { text = demo_src; file = Some "demo.v" })

(* one candidate's identity: which cluster on which fabric *)
let impl_sig (e : A.Selection.efpga_impl) : string =
  e.A.Selection.cluster.A.Clustering.key ^ "@"
  ^ F.Fabric.size_label e.A.Selection.impl.F.Size_search.fabric

(* the full ranking as data: one signature per ranked solution *)
let ranking_sig (flow : A.Flow.t) : string list =
  List.map
    (fun (s : A.Selection.solution) ->
      String.concat "+" (List.map impl_sig s.A.Selection.efpgas))
    (Selection_oracle.of_flow flow)

(* ---------- Eq. 1 must stay finite on degenerate maxima ---------- *)

let test_score_eq1_degenerate () =
  let check_finite name cfg ~max_io ~max_clb =
    let s =
      A.Selection.score_eq1 cfg ~max_io ~max_clb ~io_util:0.5 ~clb_util:0.5
    in
    Alcotest.(check bool) (name ^ " finite") true (Float.is_finite s)
  in
  List.iter
    (fun (formula : C.Flow_config.score_formula) ->
      let cfg = { demo_cfg with C.Flow_config.score_formula = formula } in
      let name =
        if formula = C.Flow_config.Reward then "reward" else "penalty"
      in
      (* all-zero maxima: the historical 0/0 -> NaN case *)
      check_finite (name ^ " zero maxima") cfg ~max_io:0.0 ~max_clb:0.0;
      (* one-sided zero *)
      check_finite (name ^ " zero io max") cfg ~max_io:0.0 ~max_clb:0.8;
      (* non-finite maxima must be treated as degenerate, not propagated *)
      check_finite (name ^ " nan maxima") cfg ~max_io:Float.nan
        ~max_clb:Float.nan;
      check_finite (name ^ " inf maxima") cfg ~max_io:Float.infinity
        ~max_clb:0.8)
    [ C.Flow_config.Reward; C.Flow_config.Penalty ];
  (* sane maxima still score normally (guard must not over-trigger) *)
  let s =
    A.Selection.score_eq1 demo_cfg ~max_io:0.8 ~max_clb:0.9 ~io_util:0.8
      ~clb_util:0.9
  in
  Alcotest.(check bool) "normal case nonzero" true (Float.is_finite s && s <> 0.0)

(* ---------- verdict cache keying ---------- *)

let test_verdict_key_sensitivity () =
  let flow = A.Flow.run_request (demo_request demo_cfg) in
  let valid = flow.A.Flow.selection.A.Selection.valid in
  Alcotest.(check bool) "have candidates" true (List.length valid >= 2);
  let e1 = List.nth valid 0 and e2 = List.nth valid 1 in
  let key cfg (e : A.Selection.efpga_impl) =
    A.Selection.Scorer.verdict_key cfg
      ~fabric:e.A.Selection.impl.F.Size_search.fabric
      ~mapped:e.A.Selection.mapped
  in
  (* stable: same config, same candidate, same key *)
  Alcotest.(check string) "deterministic" (key measured_cfg e1)
    (key measured_cfg e1);
  (* budget knobs rekey *)
  let budget_cfg =
    { measured_cfg with C.Flow_config.attack_budget = 999 }
  in
  Alcotest.(check bool) "attack_budget rekeys" true
    (key measured_cfg e1 <> key budget_cfg e1);
  let iter_cfg =
    { measured_cfg with C.Flow_config.attack_iterations = 7 }
  in
  Alcotest.(check bool) "attack_iterations rekeys" true
    (key measured_cfg e1 <> key iter_cfg e1);
  (* execution/ranking knobs must NOT rekey: verdicts are reusable
     across attack_jobs and area-weight changes *)
  let exec_cfg =
    { measured_cfg with
      C.Flow_config.attack_jobs = 8; attack_area_weight = 0.9;
      score_mode = C.Flow_config.Heuristic }
  in
  Alcotest.(check string) "execution knobs reuse" (key measured_cfg e1)
    (key exec_cfg e1);
  (* different candidate, different key *)
  Alcotest.(check bool) "candidate rekeys" true
    (key measured_cfg e1 <> key measured_cfg e2)

(* ---------- cold/warm through the engine ---------- *)

let test_measured_cold_warm () =
  let root = tmp_root () in
  let cold_engine = A.Engine.create ~cache_dir:root () in
  let cold = A.Engine.run cold_engine (demo_request measured_cfg) in
  let ca = cold.A.Flow.selection.A.Selection.attack in
  Alcotest.(check bool) "cold: attacks ran" true
    (ca.A.Selection.Scorer.attacks_run > 0);
  Alcotest.(check int) "cold: nothing cached" 0
    ca.A.Selection.Scorer.attacks_cached;
  (* warm: a NEW engine over the same store — a second process. The
     whole point of persisting verdicts: zero solver work on rerun. *)
  let warm_engine = A.Engine.create ~cache_dir:root () in
  let calls_before = Sat.Solver.total_calls () in
  let warm = A.Engine.run warm_engine (demo_request measured_cfg) in
  let calls_after = Sat.Solver.total_calls () in
  let wa = warm.A.Flow.selection.A.Selection.attack in
  Alcotest.(check int) "warm: zero attacks run" 0
    wa.A.Selection.Scorer.attacks_run;
  Alcotest.(check int) "warm: all verdicts cached"
    ca.A.Selection.Scorer.attacks_run wa.A.Selection.Scorer.attacks_cached;
  Alcotest.(check int) "warm: zero solver calls" 0 (calls_after - calls_before);
  (* identical ranking and product *)
  Alcotest.(check (list string)) "same ranking" (ranking_sig cold)
    (ranking_sig warm);
  let verilog (flow : A.Flow.t) =
    match A.Flow.redact flow with
    | Some r -> r.A.Redact.verilog
    | None -> Alcotest.fail "expected a redactable solution"
  in
  Alcotest.(check string) "redacted Verilog byte-identical" (verilog cold)
    (verilog warm);
  (* a changed budget is a different key: verdicts recompute *)
  let bumped =
    { measured_cfg with C.Flow_config.attack_budget = 2_001 }
  in
  let third = A.Engine.create ~cache_dir:root () in
  let rerun = A.Engine.run third (demo_request bumped) in
  let ra = rerun.A.Flow.selection.A.Selection.attack in
  Alcotest.(check bool) "budget change re-attacks" true
    (ra.A.Selection.Scorer.attacks_run > 0);
  Alcotest.(check int) "budget change: no stale hits" 0
    ra.A.Selection.Scorer.attacks_cached

(* ---------- heuristic runs must never attack ---------- *)

let test_heuristic_runs_no_attacks () =
  let calls_before = Sat.Solver.total_calls () in
  let flow = A.Flow.run_request (demo_request demo_cfg) in
  let a = flow.A.Flow.selection.A.Selection.attack in
  Alcotest.(check int) "no attacks" 0 a.A.Selection.Scorer.attacks_run;
  Alcotest.(check int) "no cache traffic" 0 a.A.Selection.Scorer.attacks_cached;
  Alcotest.(check int) "no solver calls" 0
    (Sat.Solver.total_calls () - calls_before);
  List.iter
    (fun (e : A.Selection.efpga_impl) ->
      Alcotest.(check bool) "no verdict" true (e.A.Selection.verdict = None))
    flow.A.Flow.selection.A.Selection.valid

(* ---------- measured vs heuristic ranking on a benchmark ---------- *)

let gcd_measured_cfg () =
  let b = Option.get (B.find "gcd") in
  { (B.config1 b) with
    C.Flow_config.score_mode = C.Flow_config.Measured;
    attack_budget = 2_000; attack_iterations = 16; attack_jobs = 1 }

let test_measured_diverges_on_gcd () =
  let b = Option.get (B.find "gcd") in
  let heuristic_cfg = B.config1 b in
  let measured_cfg = gcd_measured_cfg () in
  let run cfg =
    A.Flow.run_request (A.Flow.request ~config:cfg (A.Flow.Ast (B.parse b)))
  in
  let h = run heuristic_cfg and m = run measured_cfg in
  let hs = ranking_sig h and ms = ranking_sig m in
  Alcotest.(check bool) "heuristic solves gcd" true (hs <> []);
  Alcotest.(check bool) "measured solves gcd" true (ms <> []);
  (* same candidate pool, so the same solution set — but measured must
     order it differently: the attack found a resilience structure the
     utilization proxies cannot see *)
  Alcotest.(check (list string)) "same solution set"
    (List.sort compare hs) (List.sort compare ms);
  Alcotest.(check bool) "rankings diverge" true (hs <> ms);
  (* every measured candidate carries its verdict *)
  List.iter
    (fun (e : A.Selection.efpga_impl) ->
      Alcotest.(check bool) "verdict attached" true
        (e.A.Selection.verdict <> None))
    m.A.Flow.selection.A.Selection.valid

(* ---------- per-candidate verdicts in reports ---------- *)

let test_verdict_rows_in_report () =
  let flow = A.Flow.run_request (demo_request measured_cfg) in
  let rows = A.Report.verdict_rows flow in
  let valid = flow.A.Flow.selection.A.Selection.valid in
  Alcotest.(check int) "one row per valid candidate" (List.length valid)
    (List.length rows);
  List.iter2
    (fun (e : A.Selection.efpga_impl) (r : A.Report.verdict_row) ->
      Alcotest.(check string) "cluster identity" e.A.Selection.cluster.A.Clustering.key
        r.A.Report.vr_cluster;
      Alcotest.(check string) "fabric label"
        (F.Fabric.size_label e.A.Selection.impl.F.Size_search.fabric)
        r.A.Report.vr_fabric;
      let v = Option.get e.A.Selection.verdict in
      Alcotest.(check string) "status"
        (Alice_security.Sat_attack.status_to_string
           v.A.Selection.Scorer.v_status)
        r.A.Report.vr_status;
      Alcotest.(check int) "dips" v.A.Selection.Scorer.v_iterations
        r.A.Report.vr_dips;
      Alcotest.(check int) "conflicts" v.A.Selection.Scorer.v_conflicts
        r.A.Report.vr_conflicts;
      Alcotest.(check int) "reused" v.A.Selection.Scorer.v_reused
        r.A.Report.vr_reused;
      Alcotest.(check bool) "reused non-negative" true
        (r.A.Report.vr_reused >= 0))
    valid rows;
  (* the text rendering holds every field *)
  (match rows with
  | [] -> Alcotest.fail "expected at least one verdict row"
  | r :: _ ->
    let line = Format.asprintf "%a" A.Report.pp_verdict_row r in
    let contains needle =
      let nl = String.length needle and ll = String.length line in
      let rec at i =
        if i + nl > ll then false
        else String.sub line i nl = needle || at (i + 1)
      in
      nl = 0 || at 0
    in
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "row renders %S" needle)
          true (contains needle))
      [ r.A.Report.vr_fabric; r.A.Report.vr_status;
        string_of_int r.A.Report.vr_conflicts ]);
  (* heuristic scoring computes no verdicts, so no rows *)
  let h = A.Flow.run_request (demo_request demo_cfg) in
  Alcotest.(check int) "heuristic: no rows" 0
    (List.length (A.Report.verdict_rows h))

(* ---------- determinism across attack_jobs ---------- *)

let test_measured_deterministic_across_jobs () =
  let cfg_serial = gcd_measured_cfg () in
  let cfg_parallel = { cfg_serial with C.Flow_config.attack_jobs = 4 } in
  let b = Option.get (B.find "gcd") in
  let run cfg =
    A.Flow.run_request (A.Flow.request ~config:cfg (A.Flow.Ast (B.parse b)))
  in
  let serial = run cfg_serial and parallel = run cfg_parallel in
  Alcotest.(check (list string)) "identical ranking" (ranking_sig serial)
    (ranking_sig parallel);
  let scores (flow : A.Flow.t) =
    List.map
      (fun (e : A.Selection.efpga_impl) -> e.A.Selection.score)
      flow.A.Flow.selection.A.Selection.valid
  in
  Alcotest.(check (list (float 0.0))) "bit-identical scores"
    (scores serial) (scores parallel);
  (* the searches themselves, not only what the ranking reads of them:
     four sessions load clauses at once in different domains *)
  let rows flow =
    List.map
      (fun (r : A.Report.verdict_row) ->
        Printf.sprintf "%s %s %s/%d/%d/%d" r.A.Report.vr_cluster
          r.A.Report.vr_fabric r.A.Report.vr_status r.A.Report.vr_dips
          r.A.Report.vr_conflicts r.A.Report.vr_reused)
      (A.Report.verdict_rows flow)
  in
  Alcotest.(check (list string)) "identical verdict rows" (rows serial)
    (rows parallel)

(* ---------- a converged verdict carries a checked key ---------- *)

(* An attack asks one query per DIP; a converged one then asks the
   Unsat query and the key extraction, and the scorer proves the key
   with one single-shot [Equiv] solve before the verdict stands. *)
let test_converged_key_checked () =
  let b = Option.get (B.find "gcd") in
  let flow =
    A.Flow.run_request (A.Flow.request ~config:(B.config1 b) (A.Flow.Ast (B.parse b)))
  in
  (* at 64 DIPs one cluster, [gcd.u_dp.u_mux_a], converges *)
  let cfg = { (gcd_measured_cfg ()) with C.Flow_config.attack_iterations = 64 } in
  let converged =
    List.fold_left
      (fun converged (e : A.Selection.efpga_impl) ->
        let before = Sat.Solver.total_calls () in
        let v = A.Selection.Scorer.attack_one cfg e.A.Selection.mapped in
        let calls = Sat.Solver.total_calls () - before in
        let dips = v.A.Selection.Scorer.v_iterations in
        let label = e.A.Selection.cluster.A.Clustering.key ^ ": solver calls" in
        match v.A.Selection.Scorer.v_status with
        | Alice_security.Sat_attack.Converged ->
          Alcotest.(check int) label (dips + 3) calls;
          converged + 1
        | Alice_security.Sat_attack.Exhausted ->
          Alcotest.(check int) label dips calls;
          converged
        | Alice_security.Sat_attack.Inconclusive -> converged)
      0 flow.A.Flow.selection.A.Selection.valid
  in
  Alcotest.(check bool) "some attack converges" true (converged > 0)

let tests =
  [ Alcotest.test_case "score_eq1 degenerate maxima" `Quick
      test_score_eq1_degenerate;
    Alcotest.test_case "verdict key sensitivity" `Quick
      test_verdict_key_sensitivity;
    Alcotest.test_case "measured cold/warm zero solver calls" `Quick
      test_measured_cold_warm;
    Alcotest.test_case "heuristic never attacks" `Quick
      test_heuristic_runs_no_attacks;
    Alcotest.test_case "measured diverges from Eq. 1 on gcd" `Quick
      test_measured_diverges_on_gcd;
    Alcotest.test_case "verdict rows surface in reports" `Quick
      test_verdict_rows_in_report;
    Alcotest.test_case "measured deterministic across jobs" `Quick
      test_measured_deterministic_across_jobs;
    Alcotest.test_case "converged verdicts carry a checked key" `Quick
      test_converged_key_checked ]
