(* The structured diagnostics engine: parser error recovery, per-cluster
   fault isolation in the flow, solver budgets, config knobs, and a
   seeded fuzz pass asserting the flow's only exceptional escape on
   corrupt input is a located error. *)

module A = Alice
module B = Alice_benchmarks.Suite
module C = Alice_config
module D = Alice_diag.Diag
module N = Alice_netlist
module S = Alice_sat
module V = Alice_verilog

let flow_text ~config text =
  A.Flow.run_request (A.Flow.request ~config (A.Flow.Text { text; file = None }))

(* ---------- parser error recovery ---------- *)

let test_parser_recovery () =
  (* three distinct syntax errors: two bad items inside one module, one
     bad module header — recovery must report all three in one pass and
     keep every well-formed module *)
  let src =
    {|module good1 (input a, output y); assign y = a; endmodule
module bad (input [1:0] a, output [1:0] y, output [1:0] z);
  assign y = ;
  assign z = a &;
endmodule
module 123oops (input a, output y); assign y = a; endmodule
module good2 (input a, output y); assign y = ~a; endmodule|}
  in
  let design, errors = V.Parser.parse_with_recovery ~file:"three_errors.v" src in
  Alcotest.(check int) "all three errors reported" 3 (List.length errors);
  List.iter
    (fun ((loc : V.Loc.t), msg) ->
      Alcotest.(check string) "located in this file" "three_errors.v" loc.V.Loc.file;
      Alcotest.(check bool) "line known" true (loc.V.Loc.line > 0);
      Alcotest.(check bool) "message nonempty" true (String.length msg > 0))
    errors;
  (* errors arrive in source order *)
  let lines = List.map (fun ((l : V.Loc.t), _) -> l.V.Loc.line) errors in
  Alcotest.(check (list int)) "source order" (List.sort compare lines) lines;
  let names =
    List.map (fun (m : V.Ast.module_decl) -> m.V.Ast.mod_name)
      design.V.Ast.modules
  in
  Alcotest.(check (list string)) "well-formed modules survive"
    [ "good1"; "bad"; "good2" ] names

let test_recovery_clean_source_has_no_errors () =
  let src = "module m (input a, output y); assign y = a; endmodule" in
  let design, errors = V.Parser.parse_with_recovery src in
  Alcotest.(check int) "no errors" 0 (List.length errors);
  Alcotest.(check int) "one module" 1 (List.length design.V.Ast.modules)

(* ---------- solver budgets ---------- *)

(* pigeonhole PHP(4,3): small but requires real search to refute *)
let php43 () =
  let f = S.Cnf.create () in
  let v = Array.init 4 (fun _ -> Array.init 3 (fun _ -> S.Cnf.fresh_var f)) in
  for p = 0 to 3 do
    S.Cnf.add_clause f [ v.(p).(0); v.(p).(1); v.(p).(2) ]
  done;
  for h = 0 to 2 do
    for p1 = 0 to 3 do
      for p2 = p1 + 1 to 3 do
        S.Cnf.add_clause f [ -v.(p1).(h); -v.(p2).(h) ]
      done
    done
  done;
  f

let test_solver_budget_unknown () =
  (match S.Solver.solve ~max_conflicts:1 (php43 ()) with
  | S.Solver.Unknown -> ()
  | S.Solver.Sat _ -> Alcotest.fail "PHP(4,3) is unsat; got Sat"
  | S.Solver.Unsat ->
    Alcotest.fail "1-conflict budget cannot refute PHP(4,3); got Unsat");
  (* the same instance concludes once the budget is lifted *)
  match S.Solver.solve (php43 ()) with
  | S.Solver.Unsat -> ()
  | S.Solver.Sat _ -> Alcotest.fail "PHP(4,3) must be unsat"
  | S.Solver.Unknown -> Alcotest.fail "unbudgeted solve returned Unknown"

let test_solver_decision_budget () =
  match S.Solver.solve ~max_decisions:1 (php43 ()) with
  | S.Solver.Unknown -> ()
  | S.Solver.Sat _ -> Alcotest.fail "PHP(4,3) is unsat; got Sat"
  | S.Solver.Unsat ->
    Alcotest.fail "1-decision budget cannot refute PHP(4,3); got Unsat"

(* ---------- diagnostic rendering ---------- *)

let contains (s : string) (sub : string) : bool =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_render () =
  let d =
    D.error ~loc:{ V.Loc.file = "a.v"; line = 3; col = 7 }
      ~context:[ ("cluster", "top.u1") ] ~code:"E0202" "cycle through %s" "t"
  in
  Alcotest.(check string) "text form"
    "error[E0202]: a.v:3:7: cycle through t {cluster=top.u1}" (D.to_string d);
  let json = D.list_to_json [ d ] in
  Alcotest.(check bool) "json carries the code" true
    (contains json {|"code":"E0202"|});
  Alcotest.(check bool) "json carries the location" true
    (contains json {|"line":3|})

(* one JSON writer: the CLI's [list_to_json] and the server's
   [json_of_diag] both print the tree [Diag.to_doc] builds, with
   Json_lite's escapes ([\b] and [\f] included) *)
let test_render_json () =
  let located =
    D.error ~loc:{ V.Loc.file = "a.v"; line = 3; col = 7 }
      ~context:[ ("cluster", "top.u1"); ("config", "k4") ]
      ~code:"E0202" "cycle through %s" "t"
  and bare = D.warning ~code:"W0501" "attack inconclusive"
  and controls =
    D.error ~code:"E0001" "%s: No such file" "bs\bff\012tab\tq\"bsl\\.v"
  in
  let located_json =
    {|{"severity":"error","code":"E0202","message":"cycle through t",|}
    ^ {|"loc":{"file":"a.v","line":3,"col":7},|}
    ^ {|"context":{"cluster":"top.u1","config":"k4"}}|}
  in
  Alcotest.(check string) "list_to_json bytes"
    ("[" ^ located_json ^ ","
    ^ {|{"severity":"warning","code":"W0501","message":"attack inconclusive",|}
    ^ {|"loc":null,"context":{}},|}
    ^ {|{"severity":"error","code":"E0001",|}
    ^ {|"message":"bs\bff\ftab\tq\"bsl\\.v: No such file",|}
    ^ {|"loc":null,"context":{}}]|})
    (D.list_to_json [ located; bare; controls ]);
  let served d =
    Alice_config.Json_lite.to_string (Alice_server.Protocol.json_of_diag d)
  in
  Alcotest.(check string) "served located" located_json (served located);
  Alcotest.(check string) "served bare"
    {|{"severity":"warning","code":"W0501","message":"attack inconclusive"}|}
    (served bare);
  Alcotest.(check string) "served controls"
    ({|{"severity":"error","code":"E0001",|}
    ^ {|"message":"bs\bff\ftab\tq\"bsl\\.v: No such file"}|})
    (served controls)

(* ---------- per-cluster fault isolation ---------- *)

let isolation_src =
  {|module cyc (input [3:0] a, output [3:0] y);
      wire [3:0] t;
      assign t = {t[2:0], t[3]} ^ a;
      assign y = t;
    endmodule
    module f1 (input [3:0] a, output [3:0] y); assign y = a + 4'h1; endmodule
    module f2 (input [3:0] a, output [3:0] y); assign y = a ^ 4'h5; endmodule
    module top (input [3:0] x, output [3:0] o0, output [3:0] o1, output [3:0] o2);
      cyc u0 (.a(x), .y(o0));
      f1 u1 (.a(x), .y(o1));
      f2 u2 (.a(x), .y(o2));
    endmodule|}

let isolation_cfg =
  { C.Flow_config.default with
    C.Flow_config.max_io_pins = 24; max_efpgas = 1;
    min_fabric_size = 2; max_fabric_size = 10 }

let test_cluster_isolation () =
  (* the combinational cycle in [cyc] must cost exactly its own clusters,
     not the run: the flow completes and selects among the survivors *)
  let flow = flow_text ~config:isolation_cfg isolation_src in
  let failed, succeeded =
    List.partition
      (fun (c : A.Characterize.characterization) ->
        match c.A.Characterize.outcome with
        | A.Characterize.Failed _ -> true
        | A.Characterize.Implemented _ | A.Characterize.Infeasible _
        | A.Characterize.Skipped _ -> false)
      flow.A.Flow.characterized
  in
  Alcotest.(check bool) "some cluster failed" true (failed <> []);
  Alcotest.(check bool) "other clusters characterized" true (succeeded <> []);
  (* every failure is the cycle's, classified with its stable code *)
  List.iter
    (fun (c : A.Characterize.characterization) ->
      match c.A.Characterize.outcome with
      | A.Characterize.Failed d ->
        Alcotest.(check string) "cycle code" "E0202" d.D.code;
        Alcotest.(check bool) "cluster context attached" true
          (List.mem_assoc "cluster" d.D.context)
      | A.Characterize.Implemented _ | A.Characterize.Infeasible _
      | A.Characterize.Skipped _ -> ())
    failed;
  Alcotest.(check bool) "diagnostics surfaced on the flow" true
    (List.exists (fun d -> d.D.code = "E0202") flow.A.Flow.diags);
  Alcotest.(check bool) "flow still selects among survivors" true
    (flow.A.Flow.selection.A.Selection.best <> None)

let test_cache_hit_diag_names_own_cluster () =
  (* two instances of the same broken module: their clusters share one
     cache key, so one alias's characterization is a cache hit — its
     Failed diagnostic must still name *its own* instances, not the
     instances of whichever alias computed first (the old code reused
     the first cluster's diagnostic verbatim) *)
  let src =
    {|module cyc (input [3:0] a, output [3:0] y);
        wire [3:0] t;
        assign t = {t[2:0], t[3]} ^ a;
        assign y = t;
      endmodule
      module top (input [3:0] x, output [3:0] o0, output [3:0] o1);
        cyc a0 (.a(x), .y(o0));
        cyc a1 (.a(x), .y(o1));
      endmodule|}
  in
  let flow = flow_text ~config:isolation_cfg src in
  let failed_labels = ref [] in
  List.iter
    (fun (c : A.Characterize.characterization) ->
      match c.A.Characterize.outcome with
      | A.Characterize.Failed d ->
        let own_label =
          c.A.Characterize.cluster.A.Clustering.members
          |> List.map (fun (m : V.Design.tree) -> m.V.Design.inst_name)
          |> String.concat "+"
        in
        (match List.assoc_opt "cluster" d.D.context with
        | None -> Alcotest.fail "Failed diag lost its cluster context"
        | Some label ->
          Alcotest.(check string) "diag names its own instances" own_label
            label;
          failed_labels := label :: !failed_labels)
      | A.Characterize.Implemented _ | A.Characterize.Infeasible _
      | A.Characterize.Skipped _ -> ())
    flow.A.Flow.characterized;
  (* both same-module clusters failed, each under its own name *)
  Alcotest.(check bool) "a0's cluster reported" true
    (List.mem "a0" !failed_labels);
  Alcotest.(check bool) "a1's cluster reported" true
    (List.mem "a1" !failed_labels);
  (* and the flow-level diagnostics carry the same per-cluster labels *)
  let flow_labels =
    List.filter_map (fun (d : D.t) -> List.assoc_opt "cluster" d.D.context)
      flow.A.Flow.diags
  in
  Alcotest.(check bool) "flow diags attribute both aliases" true
    (List.mem "a0" flow_labels && List.mem "a1" flow_labels)

let test_all_failed_degrades_to_empty_selection () =
  (* every candidate is the cycle: nothing characterizes, yet the run
     returns (empty selection + diagnostics) instead of raising *)
  let src =
    {|module cyc (input [3:0] a, output [3:0] y);
        wire [3:0] t;
        assign t = {t[2:0], t[3]} ^ a;
        assign y = t;
      endmodule
      module top (input [3:0] x, output [3:0] o0);
        cyc u0 (.a(x), .y(o0));
      endmodule|}
  in
  let flow = flow_text ~config:isolation_cfg src in
  Alcotest.(check bool) "no valid eFPGA" true
    (flow.A.Flow.selection.A.Selection.valid = []);
  Alcotest.(check bool) "no best solution" true
    (flow.A.Flow.selection.A.Selection.best = None);
  Alcotest.(check bool) "diagnostics explain why" true
    (List.exists D.is_error flow.A.Flow.diags)

(* ---------- syntax errors flow through run_request ---------- *)

let test_run_request_reports_parse_errors () =
  (* a broken item inside a leaf module: the flow completes and carries
     the E0102 diagnostic *)
  let src =
    {|module f1 (input [3:0] a, output [3:0] y);
        assign y = ;
        assign y = a + 4'h1;
      endmodule
      module top (input [3:0] x, output [3:0] o);
        f1 u1 (.a(x), .y(o));
      endmodule|}
  in
  let flow = flow_text ~config:isolation_cfg src in
  Alcotest.(check bool) "parse diagnostic recorded" true
    (List.exists (fun d -> d.D.code = "E0102") flow.A.Flow.diags)

(* ---------- configuration knobs ---------- *)

let test_config_knobs () =
  let cfg = C.Flow_config.of_string "characterize_deadline_s: 2.5\n" in
  (match cfg.C.Flow_config.characterize_deadline_s with
  | Some s -> Alcotest.(check (float 1e-9)) "deadline" 2.5 s
  | None -> Alcotest.fail "deadline not parsed");
  let d = C.Flow_config.of_string "alpha: 2.0\n" in
  Alcotest.(check bool) "deadline defaults off" true
    (d.C.Flow_config.characterize_deadline_s = None);
  (* an integer deadline is accepted *)
  let i = C.Flow_config.of_string "characterize_deadline_s: 3\n" in
  Alcotest.(check bool) "int deadline" true
    (i.C.Flow_config.characterize_deadline_s = Some 3.0);
  match C.Flow_config.of_string "attack_budget: -3\n" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative budget must be rejected"

(* A deadline that has already passed when characterization starts, at
   [jobs] 1 and 4: each run's characterizations and diagnostics, which
   must not depend on [jobs]. *)
let past_deadline_runs () =
  let run jobs =
    let cfg =
      { isolation_cfg with
        C.Flow_config.characterize_deadline_s = Some 0.0; jobs }
    in
    flow_text ~config:cfg isolation_src
  in
  let serial = run 1 and parallel = run 4 in
  let outcomes (flow : A.Flow.t) =
    List.map
      (fun (c : A.Characterize.characterization) ->
        ( c.A.Characterize.cluster.A.Clustering.key,
          match c.A.Characterize.outcome with
          | A.Characterize.Skipped d -> Some d
          | A.Characterize.Implemented _ | A.Characterize.Infeasible _
          | A.Characterize.Failed _ -> None ))
      flow.A.Flow.characterized
  in
  Alcotest.(check bool) "jobs 4 outcomes equal jobs 1" true
    (outcomes serial = outcomes parallel);
  Alcotest.(check string) "jobs 4 diagnostics equal jobs 1"
    (D.list_to_json serial.A.Flow.diags) (D.list_to_json parallel.A.Flow.diags);
  [ serial; parallel ]

let test_deadline_skips_clusters () =
  (* every cluster is skipped with W0701 and the flow still returns *)
  List.iter
    (fun (flow : A.Flow.t) ->
      Alcotest.(check bool) "clusters were skipped" true
        (List.exists (fun d -> d.D.code = "W0701") flow.A.Flow.diags);
      Alcotest.(check bool) "run completed" true
        (flow.A.Flow.selection.A.Selection.best = None))
    (past_deadline_runs ())

let test_deadline_skip_is_not_a_failure () =
  (* a budget skip is a [Skipped] outcome carrying a warning — never a
     [Failed] fault, and never an error-severity diagnostic, so the
     CLI's severity-derived exit code stays 0 for a skip-only run *)
  List.iter
    (fun (flow : A.Flow.t) ->
      Alcotest.(check bool) "clusters exist" true
        (flow.A.Flow.characterized <> []);
      List.iter
        (fun (c : A.Characterize.characterization) ->
          match c.A.Characterize.outcome with
          | A.Characterize.Skipped d ->
            Alcotest.(check string) "skip code" "W0701" d.D.code;
            Alcotest.(check bool) "skip is a warning" false (D.is_error d)
          | A.Characterize.Failed _ ->
            Alcotest.fail "deadline skip misclassified as Failed"
          | A.Characterize.Implemented _ | A.Characterize.Infeasible _ ->
            Alcotest.fail "nothing can characterize under a 0s deadline")
        flow.A.Flow.characterized;
      (* only-skips => no errors anywhere on the flow (exit-code-0 shape) *)
      Alcotest.(check bool) "no error diagnostics for a mere budget skip" false
        (List.exists D.is_error flow.A.Flow.diags))
    (past_deadline_runs ())

(* The deadline skips misses only: an engine warmed without one serves
   every key of a rerun under a deadline that has already passed, and
   skips nothing. No cluster fails, as a failure is never cached. *)
let test_deadline_spares_hits () =
  let src =
    {|module f1 (input [3:0] a, output [3:0] y); assign y = a + 4'h1; endmodule
      module f2 (input [3:0] a, output [3:0] y); assign y = a ^ 4'h5; endmodule
      module top (input [3:0] x, output [3:0] o1, output [3:0] o2);
        f1 u1 (.a(x), .y(o1));
        f2 u2 (.a(x), .y(o2));
      endmodule|}
  in
  let engine = A.Engine.create ~cache:false () in
  let run deadline =
    A.Engine.run engine
      (A.Flow.request
         ~config:
           { isolation_cfg with
             C.Flow_config.characterize_deadline_s = deadline; jobs = 1 }
         (A.Flow.Text { text = src; file = None }))
  in
  let cold = run None in
  let warm = run (Some 0.0) in
  let stats = warm.A.Flow.char_stats in
  Alcotest.(check bool) "the cold run computed" true
    (cold.A.Flow.char_stats.A.Characterize.computed > 0);
  Alcotest.(check int) "every key a hit" stats.A.Characterize.unique
    stats.A.Characterize.cache_hits;
  Alcotest.(check int) "nothing computed" 0 stats.A.Characterize.computed;
  Alcotest.(check int) "nothing skipped" 0 stats.A.Characterize.skipped;
  Alcotest.(check bool) "no W0701" false
    (List.exists (fun d -> d.D.code = "W0701") warm.A.Flow.diags)

(* ---------- attack budgets surface as Inconclusive ---------- *)

let test_attack_inconclusive () =
  let src =
    "module m (input [5:0] a, output [5:0] y); assign y = (a ^ 6'h2a) + 6'h7; endmodule"
  in
  let c = N.Synth.synthesize (V.Elaborate.elaborate (V.Parser.parse src)) in
  let mapped = N.Lutmap.map ~k:4 c in
  let locked = Alice_security.Locked.of_mapped mapped in
  let oracle = Alice_security.Locked.make_oracle locked in
  let budget =
    { Alice_security.Sat_attack.default_budget with
      Alice_security.Sat_attack.solver_conflicts = Some 1 }
  in
  let o = Alice_security.Sat_attack.attack ~budget locked ~oracle in
  (match o.Alice_security.Sat_attack.status with
  | Alice_security.Sat_attack.Inconclusive -> ()
  | Alice_security.Sat_attack.Converged | Alice_security.Sat_attack.Exhausted ->
    Alcotest.fail "a 1-conflict solver budget must leave the attack inconclusive");
  Alcotest.(check bool) "not reported as success" false
    (o.Alice_security.Sat_attack.status = Alice_security.Sat_attack.Converged)

(* ---------- seeded fuzz: corrupt sources never crash the flow ---------- *)

let fuzz_cfg =
  { C.Flow_config.default with
    C.Flow_config.max_fabric_size = 8; max_efpgas = 1;
    characterize_deadline_s = Some 0.5 }

let mutate (st : Random.State.t) (src : string) : string =
  let n = String.length src in
  match Random.State.int st 5 with
  | 0 ->
    (* truncate *)
    String.sub src 0 (Random.State.int st n)
  | 1 ->
    (* delete one line *)
    let lines = String.split_on_char '\n' src in
    let k = Random.State.int st (List.length lines) in
    lines |> List.filteri (fun i _ -> i <> k) |> String.concat "\n"
  | 2 ->
    (* replace one character with hostile punctuation *)
    let junk = ";)(,=+-][}{@" in
    let b = Bytes.of_string src in
    Bytes.set b (Random.State.int st n)
      junk.[Random.State.int st (String.length junk)];
    Bytes.to_string b
  | 3 ->
    (* duplicate a chunk elsewhere *)
    let p = Random.State.int st n in
    let len = min (n - p) (1 + Random.State.int st 64) in
    let q = Random.State.int st n in
    String.sub src 0 q ^ String.sub src p len
    ^ String.sub src q (n - q)
  | _ ->
    (* delete a chunk *)
    let p = Random.State.int st n in
    let len = min (n - p) (1 + Random.State.int st 64) in
    String.sub src 0 p ^ String.sub src (p + len) (n - p - len)

let test_fuzz_flow_never_crashes () =
  let sources = [ B.gcd.B.source; B.sasc.B.source ] in
  let variants_per_source = 100 in
  List.iteri
    (fun s src ->
      for i = 0 to variants_per_source - 1 do
        let st = Random.State.make [| 0xd1a6; s; i |] in
        let v = mutate st src in
        match flow_text ~config:fuzz_cfg v with
        | _flow -> ()  (* clean, diagnostic-bearing result *)
        | exception V.Loc.Error _ -> ()  (* the documented escape *)
        | exception e ->
          Alcotest.fail
            (Printf.sprintf "source %d variant %d escaped with %s" s i
               (Printexc.to_string e))
      done)
    sources

let tests =
  [ Alcotest.test_case "parser recovery: all errors in one pass" `Quick
      test_parser_recovery;
    Alcotest.test_case "parser recovery: clean source" `Quick
      test_recovery_clean_source_has_no_errors;
    Alcotest.test_case "solver conflict budget returns Unknown" `Quick
      test_solver_budget_unknown;
    Alcotest.test_case "solver decision budget returns Unknown" `Quick
      test_solver_decision_budget;
    Alcotest.test_case "diagnostic rendering" `Quick test_render;
    Alcotest.test_case "diagnostic json bytes" `Quick test_render_json;
    Alcotest.test_case "per-cluster fault isolation" `Quick
      test_cluster_isolation;
    Alcotest.test_case "cache-hit diagnostics name their own cluster" `Quick
      test_cache_hit_diag_names_own_cluster;
    Alcotest.test_case "all-failed run degrades cleanly" `Quick
      test_all_failed_degrades_to_empty_selection;
    Alcotest.test_case "run_request reports parse errors" `Quick
      test_run_request_reports_parse_errors;
    Alcotest.test_case "config budget knobs" `Quick test_config_knobs;
    Alcotest.test_case "characterize deadline skips clusters" `Quick
      test_deadline_skips_clusters;
    Alcotest.test_case "deadline skip is not a failure" `Quick
      test_deadline_skip_is_not_a_failure;
    Alcotest.test_case "deadline spares cache hits" `Quick
      test_deadline_spares_hits;
    Alcotest.test_case "attack inconclusive under solver budget" `Quick
      test_attack_inconclusive;
    Alcotest.test_case "fuzz: corrupt sources never crash" `Slow
      test_fuzz_flow_never_crashes ]
