(* The pre-architecture advisor: grid planning and dedup, constraint
   parsing, end-to-end runs with ranked Pareto fronts, cold/warm JSON
   byte-identity over one cache root, and the measured-mode acceptance
   criterion — a warm advise performs zero solver calls. *)

module A = Alice
module C = Alice_config
module Y = C.Yaml_lite
module J = C.Json_lite
module Sat = Alice_sat

let tmp_root () =
  let f = Filename.temp_file "alice_advisor" ".cache" in
  Sys.remove f;
  f

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

let demo_source () = A.Flow.Text { text = demo_src; file = Some "demo.v" }

let singleton_axes ?(lut = [ 4 ]) ?(widths = [ 12 ]) ?(utils = [ 0.6 ])
    ?(budgets = [ 5000 ]) ?(modes = [ C.Flow_config.Heuristic ]) () =
  { A.Advisor.ax_lut_inputs = lut; ax_max_widths = widths;
    ax_utilizations = utils; ax_attack_budgets = budgets;
    ax_score_modes = modes }

(* ---------- planning: grid expansion and dedup ---------- *)

let test_plan_grid_order () =
  let axes =
    singleton_axes ~lut:[ 4; 6 ] ~widths:[ 10; 12 ] ()
  in
  let p = A.Advisor.plan ~base:demo_cfg ~axes in
  Alcotest.(check int) "four candidates" 4 (List.length p.A.Advisor.pl_grid);
  Alcotest.(check int) "nothing deduped" 0 p.A.Advisor.pl_deduped;
  let names = List.map fst p.A.Advisor.pl_grid in
  (* deterministic axis order: k outermost, then width *)
  Alcotest.(check (list string)) "names in axis order"
    [ "k4-w10"; "k4-w12"; "k6-w10"; "k6-w12" ] names;
  List.iter
    (fun (name, (cfg : C.Flow_config.t)) ->
      Alcotest.(check bool) "k applied" true
        (String.length name > 1
        && cfg.C.Flow_config.lut_inputs = int_of_string (String.sub name 1 1));
      Alcotest.(check bool) "min <= max fabric size" true
        (cfg.C.Flow_config.min_fabric_size <= cfg.C.Flow_config.max_fabric_size))
    p.A.Advisor.pl_grid

let test_plan_dedup_heuristic_budgets () =
  (* under heuristic scoring the attack budget cannot change any
     result, so a budget axis collapses to one candidate per (k, w) *)
  let axes = singleton_axes ~budgets:[ 1_000; 9_000 ] () in
  let p = A.Advisor.plan ~base:demo_cfg ~axes in
  Alcotest.(check int) "one survivor" 1 (List.length p.A.Advisor.pl_grid);
  Alcotest.(check int) "duplicate dropped" 1 p.A.Advisor.pl_deduped;
  (* under measured scoring the budget is part of the attack digest:
     both points are kept *)
  let axes_m =
    singleton_axes ~budgets:[ 1_000; 9_000 ]
      ~modes:[ C.Flow_config.Measured ] ()
  in
  let pm = A.Advisor.plan ~base:demo_cfg ~axes:axes_m in
  Alcotest.(check int) "measured keeps both" 2
    (List.length pm.A.Advisor.pl_grid);
  Alcotest.(check int) "measured dedups none" 0 pm.A.Advisor.pl_deduped

let test_plan_rejects_empty_axis () =
  Alcotest.(check bool) "empty axis rejected" true
    (try
       ignore (A.Advisor.plan ~base:demo_cfg ~axes:(singleton_axes ~lut:[] ()));
       false
     with Invalid_argument _ -> true)

let contains (s : string) (sub : string) : bool =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let test_plan_rejects_colliding_names () =
  (* 0.5 and 0.5000001 both print as u0.5: refused before any point
     runs, naming the axis and both values *)
  let axes = singleton_axes ~utils:[ 0.5; 0.5000001; 0.45 ] () in
  (match A.Advisor.plan ~base:demo_cfg ~axes with
  | _ -> Alcotest.fail "colliding utilization names accepted"
  | exception Invalid_argument msg ->
    List.iter
      (fun part ->
        Alcotest.(check bool) ("message names " ^ part) true
          (contains msg part))
      [ "target_utilization"; "0.5 "; "0.50000009999999995" ]);
  (* distinct names stay accepted and keep how they print, including a
     value one ulp off its decimal *)
  let p =
    A.Advisor.plan ~base:demo_cfg
      ~axes:(singleton_axes ~utils:[ 0.55; 0.55 -. 0.05 ] ())
  in
  Alcotest.(check (list string)) "names unchanged" [ "k4-w12-u0.55"; "k4-w12-u0.5" ]
    (List.map fst p.A.Advisor.pl_grid)

let test_axes_of_constraints () =
  let design =
    Alice_verilog.Elaborate.elaborate (Alice_verilog.Parser.parse demo_src)
  in
  (* defaults derive from the design: non-empty everywhere *)
  let d = A.Advisor.default_axes ~base:demo_cfg design in
  Alcotest.(check bool) "default lut axis non-empty" true
    (d.A.Advisor.ax_lut_inputs <> []);
  Alcotest.(check bool) "default width axis non-empty" true
    (d.A.Advisor.ax_max_widths <> []);
  (* constraints override only the keys they carry *)
  let doc =
    Y.Map
      [ ("axes",
         Y.Map
           [ ("lut_inputs", Y.List [ Y.Int 4 ]);
             ("max_fabric_size", Y.Int 10);  (* bare scalar = singleton *)
             ("target_utilization", Y.List [ Y.Float 0.5; Y.Float 0.7 ]);
             ("score", Y.List [ Y.String "heuristic"; Y.String "measured" ]) ]) ]
  in
  let a = A.Advisor.axes_of_constraints ~base:demo_cfg design doc in
  Alcotest.(check (list int)) "lut pinned" [ 4 ] a.A.Advisor.ax_lut_inputs;
  Alcotest.(check (list int)) "width pinned" [ 10 ] a.A.Advisor.ax_max_widths;
  Alcotest.(check int) "two utilizations" 2
    (List.length a.A.Advisor.ax_utilizations);
  Alcotest.(check int) "two modes" 2 (List.length a.A.Advisor.ax_score_modes);
  Alcotest.(check (list int)) "budget untouched"
    d.A.Advisor.ax_attack_budgets a.A.Advisor.ax_attack_budgets;
  (* malformed axes are rejected, not silently dropped *)
  let bad k v = Y.Map [ ("axes", Y.Map [ (k, v) ]) ] in
  List.iter
    (fun (name, doc) ->
      Alcotest.(check bool) name true
        (try
           ignore (A.Advisor.axes_of_constraints ~base:demo_cfg design doc);
           false
         with Invalid_argument _ -> true))
    [ ("non-positive k", bad "lut_inputs" (Y.List [ Y.Int 0 ]));
      ("1-input LUTs", bad "lut_inputs" (Y.List [ Y.Int 4; Y.Int 1 ]));
      ("utilization > 1", bad "target_utilization" (Y.Float 1.5));
      ("unknown mode", bad "score" (Y.String "vibes"));
      ("empty axis", bad "max_fabric_size" (Y.List [])) ]

(* ---------- end-to-end: ranked front ---------- *)

let test_advise_ranked_front () =
  let axes = singleton_axes ~lut:[ 4 ] ~widths:[ 8; 12 ] () in
  let p = A.Advisor.plan ~base:demo_cfg ~axes in
  let engine = A.Engine.create ~cache_dir:(tmp_root ()) () in
  let r = A.Advisor.run engine ~source:(demo_source ()) p in
  Alcotest.(check int) "entry per grid point"
    (List.length p.A.Advisor.pl_grid)
    (List.length r.A.Advisor.r_entries);
  Alcotest.(check bool) "front non-empty" true (r.A.Advisor.r_front <> []);
  (* ranks are 1..n down the front *)
  List.iteri
    (fun i (e : A.Advisor.entry) ->
      Alcotest.(check (option int)) "rank" (Some (i + 1)) e.A.Advisor.e_rank)
    r.A.Advisor.r_front;
  (* every feasible non-front entry names a front member dominating it *)
  let front_names =
    List.map (fun (e : A.Advisor.entry) -> e.A.Advisor.e_name)
      r.A.Advisor.r_front
  in
  List.iter
    (fun (e : A.Advisor.entry) ->
      match (e.A.Advisor.e_rank, e.A.Advisor.e_dominated_by) with
      | Some _, None -> ()
      | None, Some w ->
        Alcotest.(check bool) "witness on front" true (List.mem w front_names)
      | None, None ->
        Alcotest.(check bool) "unranked entries are infeasible/unfit" true
          (not e.A.Advisor.e_point.A.Engine.sp_feasible
          || e.A.Advisor.e_point.A.Engine.sp_metrics = None
          ||
          match e.A.Advisor.e_point.A.Engine.sp_metrics with
          | Some m ->
            not
              (Float.is_finite m.A.Engine.pm_area_um2
              && Float.is_finite m.A.Engine.pm_timing_ns
              && Float.is_finite m.A.Engine.pm_security)
          | None -> true)
      | Some _, Some _ -> Alcotest.fail "entry both ranked and dominated")
    r.A.Advisor.r_entries;
  (* front members carry finite metrics *)
  List.iter
    (fun (e : A.Advisor.entry) ->
      match e.A.Advisor.e_point.A.Engine.sp_metrics with
      | None -> Alcotest.fail "front entry without metrics"
      | Some m ->
        Alcotest.(check bool) "finite positive area" true
          (Float.is_finite m.A.Engine.pm_area_um2
          && m.A.Engine.pm_area_um2 > 0.0);
        Alcotest.(check bool) "finite positive path" true
          (Float.is_finite m.A.Engine.pm_timing_ns
          && m.A.Engine.pm_timing_ns > 0.0);
        Alcotest.(check bool) "finite security" true
          (Float.is_finite m.A.Engine.pm_security))
    r.A.Advisor.r_front;
  (* table rows: ranked front first, one row per entry *)
  let rows = A.Advisor.table_rows r in
  Alcotest.(check int) "row per entry"
    (List.length r.A.Advisor.r_entries)
    (List.length rows);
  (match rows with
  | first :: _ ->
    Alcotest.(check string) "best ranked first" "1" first.A.Report.ar_rank
  | [] -> Alcotest.fail "no table rows")

(* ---------- cold/warm byte-identity over one cache root ---------- *)

let test_advise_warm_byte_identical () =
  let root = tmp_root () in
  let axes = singleton_axes ~lut:[ 4 ] ~widths:[ 8; 12 ] () in
  let p = A.Advisor.plan ~base:demo_cfg ~axes in
  let run () =
    let engine = A.Engine.create ~cache_dir:root () in
    let resumed = ref 0 and seen = ref 0 in
    let on_point (sp : A.Engine.sweep_point) =
      incr seen;
      if sp.A.Engine.sp_resumed then incr resumed
    in
    let r = A.Advisor.run ~on_point engine ~source:(demo_source ()) p in
    (J.to_string (A.Advisor.json_of_report r), !seen, !resumed)
  in
  let cold_json, cold_seen, cold_resumed = run () in
  Alcotest.(check int) "cold: every point observed" 2 cold_seen;
  Alcotest.(check int) "cold: nothing resumed" 0 cold_resumed;
  (* warm: a NEW engine over the same store — a second process *)
  let warm_json, warm_seen, warm_resumed = run () in
  Alcotest.(check int) "warm: every point observed" 2 warm_seen;
  Alcotest.(check int) "warm: everything resumed" 2 warm_resumed;
  Alcotest.(check string) "reports byte-identical" cold_json warm_json;
  (* ~resume:false recomputes but must still render identically *)
  let engine = A.Engine.create ~cache_dir:root () in
  let forced =
    A.Advisor.run ~resume:false engine ~source:(demo_source ()) p
  in
  Alcotest.(check string) "forced recompute renders identically" cold_json
    (J.to_string (A.Advisor.json_of_report forced));
  List.iter
    (fun (e : A.Advisor.entry) ->
      Alcotest.(check bool) "not marked resumed" false
        e.A.Advisor.e_point.A.Engine.sp_resumed)
    forced.A.Advisor.r_entries

(* ---------- measured mode: warm advise runs zero attacks ---------- *)

let test_measured_warm_zero_solver_calls () =
  let root = tmp_root () in
  let base =
    { demo_cfg with
      C.Flow_config.score_mode = C.Flow_config.Measured;
      attack_budget = 2_000; attack_iterations = 16; attack_jobs = 1 }
  in
  let axes =
    singleton_axes ~widths:[ 8; 12 ] ~budgets:[ 2_000 ]
      ~modes:[ C.Flow_config.Measured ] ()
  in
  let p = A.Advisor.plan ~base ~axes in
  let cold_engine = A.Engine.create ~cache_dir:root () in
  let cold = A.Advisor.run cold_engine ~source:(demo_source ()) p in
  let attacks_run =
    List.fold_left
      (fun acc (e : A.Advisor.entry) ->
        acc + e.A.Advisor.e_point.A.Engine.sp_attacks_run)
      0 cold.A.Advisor.r_entries
  in
  Alcotest.(check bool) "cold advise attacks" true (attacks_run > 0);
  List.iter
    (fun (e : A.Advisor.entry) ->
      match e.A.Advisor.e_point.A.Engine.sp_metrics with
      | Some m ->
        Alcotest.(check bool) "measured scale" true
          (m.A.Engine.pm_security_mode = C.Flow_config.Measured);
        Alcotest.(check bool) "resilience in [0,1]" true
          (m.A.Engine.pm_security >= 0.0 && m.A.Engine.pm_security <= 1.0)
      | None -> ())
    cold.A.Advisor.r_entries;
  (* warm: fresh engine, same store — the whole advise must cost zero
     solver calls (acceptance criterion) *)
  let warm_engine = A.Engine.create ~cache_dir:root () in
  let calls_before = Sat.Solver.total_calls () in
  let warm = A.Advisor.run warm_engine ~source:(demo_source ()) p in
  let calls_after = Sat.Solver.total_calls () in
  Alcotest.(check int) "warm advise: zero solver calls" 0
    (calls_after - calls_before);
  Alcotest.(check string) "measured reports byte-identical"
    (J.to_string (A.Advisor.json_of_report cold))
    (J.to_string (A.Advisor.json_of_report warm))

(* ---------- JSON shape ---------- *)

let test_json_shape () =
  let p =
    A.Advisor.plan ~base:demo_cfg ~axes:(singleton_axes ~widths:[ 8; 12 ] ())
  in
  let engine = A.Engine.create ~cache:false () in
  let r = A.Advisor.run engine ~source:(demo_source ()) p in
  let j = A.Advisor.json_of_report r in
  let get k = Option.get (J.find j k) in
  (match get "front" with
  | J.List (_ :: _) -> ()
  | _ -> Alcotest.fail "front must be a non-empty list");
  (match get "candidates" with
  | J.List cs ->
    Alcotest.(check int) "all candidates listed"
      (List.length r.A.Advisor.r_entries) (List.length cs);
    List.iter
      (fun c ->
        List.iter
          (fun k ->
            Alcotest.(check bool) (k ^ " present") true (J.find c k <> None))
          [ "name"; "feasible"; "lut_inputs"; "max_fabric_size"; "score" ];
        (* determinism contract: no wall-clock or provenance fields *)
        List.iter
          (fun k ->
            Alcotest.(check bool) (k ^ " absent") true (J.find c k = None))
          [ "times"; "resumed"; "diags" ])
      cs
  | _ -> Alcotest.fail "candidates must be a list");
  match get "deduped" with
  | J.Int _ -> ()
  | _ -> Alcotest.fail "deduped must be an int"

let tests =
  [ Alcotest.test_case "plan grid order" `Quick test_plan_grid_order;
    Alcotest.test_case "plan dedups heuristic budgets" `Quick
      test_plan_dedup_heuristic_budgets;
    Alcotest.test_case "plan rejects empty axis" `Quick
      test_plan_rejects_empty_axis;
    Alcotest.test_case "plan rejects colliding names" `Quick
      test_plan_rejects_colliding_names;
    Alcotest.test_case "axes of constraints" `Quick test_axes_of_constraints;
    Alcotest.test_case "advise ranks a front" `Quick test_advise_ranked_front;
    Alcotest.test_case "warm advise byte-identical" `Quick
      test_advise_warm_byte_identical;
    Alcotest.test_case "measured warm advise zero solver calls" `Quick
      test_measured_warm_zero_solver_calls;
    Alcotest.test_case "report json shape" `Quick test_json_shape ]
