(* Smoke test of the performance benchmark (bench/perf): one traced
   smoke-scale run of every workload reports every named metric, the
   oracle rejects broken redactions, and decks depend on the seed and on
   nothing else. *)

module A = Alice
module J = Alice_config.Json_lite
module P = Alice_perf
module I = P.Inputs
module M = P.Metrics

let benchmark_json = "../../../BENCHMARK.json"

let read path = In_channel.with_open_bin path In_channel.input_all

let metric_names section =
  match J.find (J.parse (read benchmark_json)) section with
  | Some (J.List ms) ->
    List.map
      (fun m -> (J.get_string m "name", J.get_string m "unit", J.get_string m "better"))
      ms
  | _ -> Alcotest.fail ("BENCHMARK.json has no " ^ section)

(* BENCHMARK.json's metrics are the registry's, with the same units and
   directions. *)
let test_registry () =
  List.iter
    (fun (name, unit_, better) ->
      match M.find name with
      | None -> Alcotest.failf "%s is not a metric the benchmark reports" name
      | Some d ->
        Alcotest.(check string) (name ^ " unit") d.M.unit_ unit_;
        Alcotest.(check string) (name ^ " better")
          (match d.M.better with M.Lower -> "lower" | M.Higher -> "higher")
          better)
    (metric_names "end_to_end" @ metric_names "per_layer");
  Alcotest.(check int) "every layer metric is listed"
    (List.length M.layers) (List.length (metric_names "per_layer"))

(* A traced smoke run: every workload passes its checks and reports
   every end-to-end and per-layer metric, and every trace file is a
   trace-event document. *)
let test_smoke_run () =
  let out = Filename.concat "smoke" "result.json" in
  let trace = Filename.concat "smoke" "trace" in
  let code =
    Sys.command
      (Filename.quote_command "../perf.exe"
         [ "run"; "--scale"; "smoke"; "--seconds"; "0"; "--seed"; "1"; "--trace"; trace;
           "--out"; out ]
         ~stdout:"smoke.log")
  in
  Alcotest.(check int) "perf.exe run exits 0" 0 code;
  let results = P.Compare.load out in
  Alcotest.(check (list string)) "every workload ran" (List.map fst P.Workloads.all)
    (List.map (fun (r : M.result) -> r.M.workload) results);
  List.iter
    (fun (r : M.result) ->
      let w = r.M.workload in
      Alcotest.(check bool) (w ^ " correct") true r.M.correct;
      Alcotest.(check bool) (w ^ " attempted") true (r.M.attempted >= 4);
      let expect names values =
        List.iter
          (fun name ->
            match List.assoc_opt name values with
            | Some v when Float.is_finite v -> ()
            | _ -> Alcotest.failf "%s: metric %s missing" w name)
          names
      in
      let e2e = List.map (fun (n, _, _) -> n) (metric_names "end_to_end") in
      expect (e2e @ [ "failed_frac" ]) r.M.metrics;
      if w = "serve_mixed" then expect [ "ping_p90_ms" ] r.M.metrics;
      if w = "attack_measured" then expect [ "qor_resilience" ] r.M.metrics;
      expect (List.map (fun (n, _, _) -> n) (metric_names "per_layer")) r.M.layers;
      let doc = J.parse (read (Filename.concat trace (w ^ ".trace.json"))) in
      match J.find doc "traceEvents" with
      | Some (J.List (_ :: _)) -> ()
      | _ -> Alcotest.failf "%s: empty trace" w)
    results

let test_oracle () =
  let d = I.design "FIR" ~cfg2:false in
  let flow =
    A.Flow.run_request
      (A.Flow.request ~config:(I.config d)
         (A.Flow.Text { text = d.I.bench.Alice_benchmarks.Suite.source; file = None }))
  in
  let best = Option.get flow.A.Flow.selection.A.Selection.best in
  let reference = P.Oracle.reference d.I.bench in
  let red = Option.get (A.Flow.redact ~view:A.Redact.Programmed flow) in
  let ok = function Ok () -> true | Error _ -> false in
  Alcotest.(check bool) "the programmed view passes" true
    (ok (P.Oracle.check ~seed:1 reference best red));
  let flip i =
    { red with
      A.Redact.sites =
        List.mapi
          (fun k (s : A.Redact.efpga_site) ->
            if k > 0 then s
            else
              let bits = Array.copy s.A.Redact.bitstream in
              let i = if i < 0 then Array.length bits + i else i in
              bits.(i) <- not bits.(i);
              { s with A.Redact.bitstream = bits })
          red.A.Redact.sites }
  in
  Alcotest.(check bool) "a flipped LUT bit is rejected" false
    (ok (P.Oracle.check ~seed:1 reference best (flip 0)));
  Alcotest.(check bool) "a flipped routing bit is rejected" false
    (ok (P.Oracle.check ~seed:1 reference best (flip (-1))));
  (* an unprogrammed fabric (the foundry view) does not behave like
     the original *)
  let opaque = Option.get (A.Flow.redact ~view:A.Redact.Opaque flow) in
  Alcotest.(check bool) "an unprogrammed fabric is rejected" false
    (ok (P.Oracle.simulate ~seed:1 reference opaque.A.Redact.verilog))

(* Decks are a function of (seed, deck index) alone. *)
let test_decks () =
  (* [ordered] also spells out the order of each advisor grid's axes *)
  let describe ~ordered = function
    | `Redact (r : I.redact_req) -> Printf.sprintf "%s%+g" (I.label r.I.r_design) r.I.r_jitter
    | `Attack (r : I.attack_req) ->
      Printf.sprintf "%s b%d i%d" (I.label r.I.a_design) r.I.a_budget r.I.a_iterations
    | `Advise (g : I.grid) when ordered ->
      Printf.sprintf "%s %s %s" (I.grid_key g)
        (String.concat "," (List.map string_of_int (g.I.g_luts @ g.I.g_widths)))
        (String.concat "," (List.map string_of_float g.I.g_utils))
    | `Advise g -> I.grid_key g
    | `Serve op -> P.Workloads.op_key op
  in
  let decks ?(ordered = true) seed =
    List.map
      (fun k ->
        List.map (describe ~ordered)
          (List.map (fun r -> `Redact r) (I.redact_deck ~scale:I.Full ~seed k)
          @ List.map (fun r -> `Attack r) (I.attack_deck ~scale:I.Full ~seed k)
          @ List.map (fun g -> `Advise g) (I.advise_deck ~scale:I.Full ~seed k)
          @ List.map (fun o -> `Serve o) (I.serve_deck ~scale:I.Full ~seed k)))
      [ 0; 1 ]
  in
  Alcotest.(check (list (list string))) "same seed, same requests" (decks 1) (decks 1);
  Alcotest.(check bool) "another seed, another order" true (decks 1 <> decks 2);
  let multiset seed = List.map (List.sort compare) (decks ~ordered:false seed) in
  Alcotest.(check (list (list string))) "the same mix whatever the seed" (multiset 1)
    (multiset 2)

let test_quartiles () =
  let q1, m, q3 = P.Stats.quartiles [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] in
  Alcotest.(check (list (float 1e-12))) "statistics.quantiles(n=4)" [ 2.75; 5.5; 8.25 ]
    [ q1; m; q3 ];
  let ten = [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] in
  Alcotest.(check (float 0.0)) "p90, nearest rank" 9.0 (P.Stats.percentile ten 0.9);
  Alcotest.(check (float 0.0)) "p90 of two copies" 9.0 (P.Stats.percentile (ten @ ten) 0.9);
  Alcotest.(check (float 0.0)) "p50 of three copies" 5.0
    (P.Stats.percentile (ten @ ten @ ten) 0.5)

let () =
  Alcotest.run "perf"
    [ ( "perf",
        [ Alcotest.test_case "registry matches BENCHMARK.json" `Quick test_registry;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "seeded decks" `Quick test_decks;
          Alcotest.test_case "oracle rejects broken redactions" `Quick test_oracle;
          Alcotest.test_case "traced smoke run" `Quick test_smoke_run ] ) ]
