(* The ALICE core phases on a small synthetic design, plus selection
   semantics. *)

module V = Alice_verilog
module A = Alice
module C = Alice_config

let flow_text ~config text =
  A.Flow.run_request (A.Flow.request ~config (A.Flow.Text { text; file = None }))

(* four candidate leaf modules under one parent; two of them directly
   connected, the others independent *)
let demo_src =
  {|module f1 (input [7:0] a, output [7:0] y); assign y = a + 8'h1; endmodule
    module f2 (input [7:0] a, output [7:0] y); assign y = a ^ 8'h55; endmodule
    module f3 (input [7:0] a, output [7:0] y); assign y = {a[0], a[7:1]}; endmodule
    module wide (input [63:0] a, output [63:0] y); assign y = ~a; endmodule
    module top (input [7:0] x, input [63:0] w, output [7:0] out1, output [7:0] out2, output [63:0] wout);
      wire [7:0] t;
      f1 u1 (.a(x), .y(t));
      f2 u2 (.a(t), .y(out1));
      f3 u3 (.a(x), .y(out2));
      wide u4 (.a(w), .y(wout));
    endmodule|}

let demo_cfg =
  { C.Flow_config.default with
    C.Flow_config.max_io_pins = 40; max_efpgas = 2;
    selected_outputs = [ "out1"; "out2" ];
    min_fabric_size = 2; max_fabric_size = 12 }

let run () = flow_text ~config:demo_cfg demo_src

let test_filtering () =
  let flow = run () in
  let names =
    List.map (fun (c : A.Filtering.candidate) -> c.module_name)
      flow.A.Flow.filtering.A.Filtering.candidates
    |> List.sort compare
  in
  (* wide (128 pins) is structurally excluded; u4 does not affect the
     selected outputs anyway *)
  Alcotest.(check (list string)) "candidates" [ "f1"; "f2"; "f3" ] names;
  let f3 = List.find (fun (c : A.Filtering.candidate) -> c.module_name = "f3")
      flow.A.Flow.filtering.A.Filtering.candidates in
  Alcotest.(check int) "f3 affects only out2" 1 f3.A.Filtering.score;
  Alcotest.(check int) "f3 pins" 16 f3.A.Filtering.io_pins

let test_clustering () =
  let flow = run () in
  let keys = List.map (fun (c : A.Clustering.cluster) -> c.key) flow.A.Flow.clusters in
  (* u1 feeds u2 directly, so {u1,u2} must not cluster; u3 pairs with
     both; pins 16+16=32 <= 40; triples exceed the pin budget *)
  let sorted = List.sort compare keys in
  Alcotest.(check (list string)) "clusters"
    [ "top.u1"; "top.u1|top.u3"; "top.u2"; "top.u2|top.u3"; "top.u3" ]
    sorted

let test_selection () =
  let flow = run () in
  let solutions = Selection_oracle.of_flow flow in
  Alcotest.(check bool) "has solutions" true (solutions <> []);
  (* solutions never share an instance *)
  List.iter
    (fun (s : A.Selection.solution) ->
      let paths =
        List.concat_map
          (fun (e : A.Selection.efpga_impl) ->
            List.map (fun (m : V.Design.tree) -> m.path)
              e.cluster.A.Clustering.members)
          s.A.Selection.efpgas
      in
      Alcotest.(check int) "no overlap" (List.length paths)
        (List.length (List.sort_uniq compare paths)))
    solutions;
  (* ranked best-first *)
  (match solutions with
  | first :: rest ->
    List.iter
      (fun (s : A.Selection.solution) ->
        Alcotest.(check bool) "descending scores" true
          (first.A.Selection.total_score >= s.A.Selection.total_score))
      rest
  | [] -> ())

let test_scoring_formulas () =
  let cfg = demo_cfg in
  let reward =
    A.Selection.score_eq1 cfg ~max_io:0.8 ~max_clb:0.5 ~io_util:0.4 ~clb_util:0.5
  in
  Alcotest.(check (float 1e-9)) "reward" 1.5 reward;
  let cfg_p = { cfg with C.Flow_config.score_formula = C.Flow_config.Penalty } in
  let penalty =
    A.Selection.score_eq1 cfg_p ~max_io:0.8 ~max_clb:0.5 ~io_util:0.4 ~clb_util:0.5
  in
  Alcotest.(check (float 1e-9)) "penalty (Eq. 1 literal)" 0.5 penalty;
  (* alpha/beta weighting *)
  let cfg_w = { cfg with C.Flow_config.alpha = 2.0; beta = 0.0 } in
  let weighted =
    A.Selection.score_eq1 cfg_w ~max_io:0.8 ~max_clb:0.5 ~io_util:0.4 ~clb_util:0.5
  in
  Alcotest.(check (float 1e-9)) "alpha only" 1.0 weighted

let test_max_efpgas_respected () =
  let flow = run () in
  List.iter
    (fun (s : A.Selection.solution) ->
      Alcotest.(check bool) "efpga budget" true (List.length s.A.Selection.efpgas <= 2))
    (Selection_oracle.of_flow flow);
  let cfg1 = { demo_cfg with C.Flow_config.max_efpgas = 1 } in
  let flow1 = flow_text ~config:cfg1 demo_src in
  List.iter
    (fun (s : A.Selection.solution) ->
      Alcotest.(check int) "single efpga" 1 (List.length s.A.Selection.efpgas))
    (Selection_oracle.of_flow flow1)

let test_empty_candidates_flow () =
  (* a pin budget below every module: the flow stops like IIR/cfg1 *)
  let cfg = { demo_cfg with C.Flow_config.max_io_pins = 4 } in
  let flow = flow_text ~config:cfg demo_src in
  Alcotest.(check int) "no candidates" 0
    (A.Filtering.candidate_count flow.A.Flow.filtering);
  Alcotest.(check int) "no clusters" 0 (List.length flow.A.Flow.clusters);
  Alcotest.(check bool) "no solution" true
    (flow.A.Flow.selection.A.Selection.best = None)

(* a selected output the top module lacks is a configuration error
   naming it, not a run that ends with no candidates *)
let test_missing_selected_output () =
  let config =
    { demo_cfg with C.Flow_config.selected_outputs = [ "out1"; "no_such_output" ] }
  in
  match flow_text ~config demo_src with
  | exception Invalid_argument msg ->
    Alcotest.(check string) "names the output"
      "selected_outputs: no_such_output is not an output of top" msg
  | _ -> Alcotest.fail "the flow ran with a missing selected output"

(* Algorithm 2's fixed point must produce exactly the admissible
   subsets that direct enumeration produces: on the demo, and on every
   paper design and the SoC under both configurations (up to 17
   candidates, 2^17 subsets). A subset's pin sum is checked first from
   per-instance pins (what [check_parameters] sums), so only subsets
   within the budget pay for [make_cluster]. *)
let test_fixed_point_equals_enumeration () =
  let module B = Alice_benchmarks.Suite in
  let check label design (cfg : C.Flow_config.t) =
    let df = Alice_analysis.Dataflow.build design in
    let filtering = A.Filtering.run df cfg in
    let arr = Array.of_list (A.Filtering.candidate_instances filtering) in
    let n = Array.length arr in
    let pins = Array.map (Alice_verilog.Design.io_pins design) arr in
    let subsets = ref [] in
    for mask = 1 to (1 lsl n) - 1 do
      let members = ref [] and sum = ref 0 in
      for i = 0 to n - 1 do
        if (mask lsr i) land 1 = 1 then begin
          members := arr.(i) :: !members;
          sum := !sum + pins.(i)
        end
      done;
      if !sum <= cfg.C.Flow_config.max_io_pins then begin
        let cluster = A.Clustering.make_cluster design !members in
        if
          A.Clustering.check_parameters cfg cluster
          && A.Clustering.cluster_independent cfg df cluster
        then subsets := cluster.A.Clustering.key :: !subsets
      end
    done;
    let got =
      List.map
        (fun (c : A.Clustering.cluster) -> c.key)
        (A.Clustering.run df cfg filtering)
    in
    Alcotest.(check (list string))
      (label ^ ": fixed point = enumeration")
      (List.sort compare !subsets) (List.sort compare got)
  in
  check "demo" (run ()).A.Flow.design demo_cfg;
  List.iter
    (fun (b : B.benchmark) ->
      let design = B.elaborate b in
      check (b.B.name ^ " cfg1") design (B.config1 b);
      check (b.B.name ^ " cfg2") design (B.config2 b))
    (B.all @ [ B.soc ])

(* properties over randomized flow configurations *)
let cluster_invariants_prop =
  QCheck.Test.make ~count:25 ~name:"clusters admissible under random pin budgets"
    QCheck.(make Gen.(int_range 8 80))
    (fun pins ->
      let cfg = { demo_cfg with C.Flow_config.max_io_pins = pins } in
      let flow = flow_text ~config:cfg demo_src in
      let design = flow.A.Flow.design in
      let df = Alice_analysis.Dataflow.build design in
      List.for_all
        (fun (c : A.Clustering.cluster) ->
          c.A.Clustering.io_pins <= pins
          && A.Clustering.cluster_independent cfg df c
          && A.Clustering.member_count c >= 1)
        flow.A.Flow.clusters)

let best_is_max_prop =
  QCheck.Test.make ~count:15 ~name:"best solution has the maximal score"
    QCheck.(make Gen.(pair (int_range 30 80) (int_range 1 3)))
    (fun (pins, efpgas) ->
      let cfg =
        { demo_cfg with C.Flow_config.max_io_pins = pins; max_efpgas = efpgas }
      in
      let flow = flow_text ~config:cfg demo_src in
      let solutions = Selection_oracle.of_flow flow in
      match flow.A.Flow.selection.A.Selection.best with
      | None -> solutions = []
      | Some best ->
        List.for_all
          (fun (s : A.Selection.solution) ->
            s.A.Selection.total_score <= best.A.Selection.total_score +. 1e-9)
          solutions)

(* [n] independent copies of one 12-pin leaf: many candidates, and
   solutions that tie on score *)
let leaves_src n =
  String.concat "\n"
    ([ "module leaf(input [5:0] a, output [5:0] y); assign y = a ^ 6'h2a; \
        endmodule";
       Printf.sprintf "module top(%s);"
         (String.concat ", "
            (List.init n (fun i ->
                 Printf.sprintf "input [5:0] a%d, output [5:0] y%d" i i))) ]
    @ List.init n (fun i ->
          Printf.sprintf "  leaf u%d (.a(a%d), .y(y%d));" i i i)
    @ [ "endmodule" ])

let leaves_cfg =
  { C.Flow_config.default with
    C.Flow_config.top = Some "top"; min_fabric_size = 2; max_fabric_size = 12;
    jobs = 1 }

(* Streaming Algorithm 3 against the brute-force S: the count is |S|
   and the best is the oracle's first, ties included, under every rank
   order and formula and with all-zero weights, where every score
   ties *)
let selection_oracle_prop =
  let cache = A.Characterize.create_cache () in
  QCheck.Test.make ~count:12 ~name:"streamed selection equals the oracle's S"
    QCheck.(
      make
        Gen.(triple (int_range 0 2) (int_range 24 64) (int_range 1 3)))
    (fun (design, pins, efpgas) ->
      let text, base =
        match design with
        | 0 -> (demo_src, demo_cfg)
        | n -> (leaves_src (n + 3), leaves_cfg)
      in
      List.for_all
        (fun (rank_order, score_formula, weight) ->
          let config =
            { base with
              C.Flow_config.max_io_pins = pins; max_efpgas = efpgas;
              rank_order; score_formula; alpha = weight; beta = weight }
          in
          let flow =
            A.Flow.run_request ~cache
              (A.Flow.request ~config (A.Flow.Text { text; file = None }))
          in
          let sel = flow.A.Flow.selection in
          let oracle = Selection_oracle.of_flow flow in
          A.Selection.solution_count sel = List.length oracle
          &&
          match (sel.A.Selection.best, oracle) with
          | None, [] -> true
          | Some best, first :: _ ->
            List.equal ( == ) best.A.Selection.efpgas first.A.Selection.efpgas
            && best.A.Selection.total_score = first.A.Selection.total_score
            && best.A.Selection.redacted_instances
               = first.A.Selection.redacted_instances
            && best.A.Selection.is_final = first.A.Selection.is_final
          | Some _, [] | None, _ :: _ -> false)
        (List.concat_map
           (fun order ->
             List.concat_map
               (fun formula ->
                 [ (order, formula, 1.0); (order, formula, 0.0) ])
               [ C.Flow_config.Reward; C.Flow_config.Penalty ])
           [ C.Flow_config.Highest; C.Flow_config.Lowest ]))

(* Algorithm 3 keeps |S| and the best, not S: on 14 identical leaves
   under a two-eFPGA budget, |S| is 978,628, and a finished flow still
   retains fewer than 2M words (a flow that kept S held ~15.8M) *)
let test_selection_memory () =
  let config =
    { leaves_cfg with C.Flow_config.max_io_pins = 64; max_efpgas = 2 }
  in
  let flow = flow_text ~config (leaves_src 14) in
  Gc.full_major ();
  let words = Obj.reachable_words (Obj.repr flow) in
  Alcotest.(check bool)
    (Printf.sprintf "flow retains %d words, under 2M" words)
    true (words < 2_000_000);
  let sel = flow.A.Flow.selection in
  Alcotest.(check int) "|S|" 978_628 (A.Selection.solution_count sel);
  Alcotest.(check (option (list string))) "best fabrics"
    (Some [ "4x4"; "4x4" ])
    (Option.map
       (fun (s : A.Selection.solution) ->
         List.map
           (fun (e : A.Selection.efpga_impl) ->
             Alice_fabric.Fabric.size_label e.impl.Alice_fabric.Size_search.fabric)
           s.A.Selection.efpgas)
       sel.A.Selection.best)

let tests =
  [ Alcotest.test_case "filtering" `Quick test_filtering;
    Alcotest.test_case "clustering" `Quick test_clustering;
    Alcotest.test_case "selection invariants" `Quick test_selection;
    Alcotest.test_case "scoring formulas" `Quick test_scoring_formulas;
    Alcotest.test_case "efpga budget" `Quick test_max_efpgas_respected;
    Alcotest.test_case "empty candidate flow" `Quick test_empty_candidates_flow;
    Alcotest.test_case "missing selected output" `Quick
      test_missing_selected_output;
    Alcotest.test_case "fixed point equals enumeration" `Quick
      test_fixed_point_equals_enumeration;
    QCheck_alcotest.to_alcotest cluster_invariants_prop;
    QCheck_alcotest.to_alcotest best_is_max_prop;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xA163 |])
      selection_oracle_prop;
    Alcotest.test_case "selection memory independent of |S|" `Quick
      test_selection_memory ]
