(* LUT mapping: functional equivalence, k-feasibility, and quality
   sanity bounds. *)

module V = Alice_verilog
module N = Alice_netlist

let build src = N.Synth.synthesize (V.Elaborate.elaborate (V.Parser.parse src))

let test_k_feasibility () =
  let c = build
    {|module m (input [7:0] a, input [7:0] b, output [7:0] y);
      assign y = (a + b) * (a ^ b);
    endmodule|}
  in
  List.iter
    (fun k ->
      let mapped, mapping = N.Lutmap.map ~k c in
      List.iter
        (fun (_, leaves, table) ->
          Alcotest.(check bool)
            (Printf.sprintf "cut size <= %d" k)
            true
            (List.length leaves <= k);
          Alcotest.(check int) "table size" (1 lsl List.length leaves)
            (Array.length table))
        mapping.N.Lutmap.luts;
      (* every gate in the mapped circuit is a LUT *)
      List.iter
        (fun (g : N.Circuit.gate) ->
          match g.N.Circuit.kind with
          | N.Circuit.Lut _ -> ()
          | _ -> Alcotest.fail "non-LUT gate in mapped circuit")
        (N.Circuit.gates_in_order mapped))
    [ 2; 3; 4; 6 ]

let equivalent ?(samples = 64) (a : N.Circuit.t) (b : N.Circuit.t) : bool =
  let sa = N.Simulate.create a and sb = N.Simulate.create b in
  let inputs = a.N.Circuit.inputs in
  let st = Random.State.make [| 7; List.length inputs |] in
  let ok = ref true in
  for _ = 1 to samples do
    List.iter
      (fun (name, nets) ->
        let bits = Array.init (Array.length nets) (fun _ -> Random.State.bool st) in
        N.Simulate.set_input_bits sa name bits;
        N.Simulate.set_input_bits sb name bits)
      inputs;
    N.Simulate.step sa;
    N.Simulate.step sb;
    N.Simulate.eval sa;
    N.Simulate.eval sb;
    List.iter
      (fun (name, _) ->
        if N.Simulate.read_output_bits sa name <> N.Simulate.read_output_bits sb name
        then ok := false)
      a.N.Circuit.outputs
  done;
  !ok

let test_equivalence_comb () =
  let c = build
    {|module m (input [7:0] a, input [7:0] b, input s, output [7:0] y, output flag);
      assign y = s ? (a - b) : (a & b) + 8'h3;
      assign flag = ^(a | b);
    endmodule|}
  in
  let mapped, _ = N.Lutmap.map ~k:4 c in
  Alcotest.(check bool) "comb equivalence" true (equivalent c mapped)

let test_equivalence_seq () =
  let c = build
    {|module m (input clk, input rst, input [3:0] d, output reg [3:0] q, output [3:0] y);
      always @(posedge clk or negedge rst) begin
        if (!rst) q <= 4'h0;
        else q <= q + d;
      end
      assign y = q ^ d;
    endmodule|}
  in
  let mapped, _ = N.Lutmap.map ~k:4 c in
  Alcotest.(check bool) "sequential equivalence" true (equivalent c mapped)

let test_rom_compression () =
  (* a 4-bit wide, 16-entry ROM should collapse close to one LUT per
     output bit thanks to the decision-tree synthesis of case *)
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "module rom (input [3:0] a, output reg [3:0] y);\n  always @(*) begin\n    y = 4'h0;\n    case (a)\n";
  for i = 0 to 15 do
    Buffer.add_string buf (Printf.sprintf "      4'd%d: y = 4'h%x;\n" i ((i * 7 + 3) land 0xf))
  done;
  Buffer.add_string buf "      default: y = 4'h0;\n    endcase\n  end\nendmodule\n";
  let c = build (Buffer.contents buf) in
  let _, mapping = N.Lutmap.map ~k:4 c in
  let luts = N.Lutmap.lut_count mapping in
  Alcotest.(check bool)
    (Printf.sprintf "16x4 ROM maps to <= 8 LUTs (got %d)" luts)
    true (luts <= 8)

let test_alias_outputs_free () =
  (* wiring an input straight to an output must not cost a LUT *)
  let c = build "module m (input [7:0] a, output [7:0] y); assign y = a; endmodule" in
  let _, mapping = N.Lutmap.map ~k:4 c in
  Alcotest.(check int) "identity is free" 0 (N.Lutmap.lut_count mapping)

let test_depth_reported () =
  let c = build
    {|module m (input [15:0] a, input [15:0] b, output [15:0] y);
      assign y = a + b;
    endmodule|}
  in
  let mapped, _ = N.Lutmap.map ~mode:`Depth ~k:4 c in
  let depth = N.Lutmap.depth mapped in
  Alcotest.(check bool)
    (Printf.sprintf "16-bit adder depth sane (got %d)" depth)
    true
    (depth >= 4 && depth <= 16)

(* property: random small circuits stay equivalent through mapping *)
let gen_src : string QCheck.Gen.t =
  let open QCheck.Gen in
  let ops = [ "+"; "-"; "&"; "|"; "^" ] in
  let* op1 = oneofl ops in
  let* op2 = oneofl ops in
  let* sh = int_range 0 3 in
  return
    (Printf.sprintf
       {|module m (input [5:0] a, input [5:0] b, output [5:0] y);
         assign y = ((a %s b) %s (a >> %d)) ^ {6{b[0]}};
       endmodule|}
       op1 op2 sh)

let map_equiv_prop =
  QCheck.Test.make ~count:40 ~name:"mapping preserves function"
    (QCheck.make gen_src ~print:Fun.id)
    (fun src ->
      let c = build src in
      let mapped, _ = N.Lutmap.map ~k:4 c in
      equivalent ~samples:32 c mapped)

(* formal check: mapping preserves function, proven by SAT *)
let test_sat_equivalence () =
  let module S = Alice_sat in
  let circuits =
    [ {|module m (input [7:0] a, input [7:0] b, output [8:0] y, output c);
        assign y = {1'h0, a} + {1'h0, b};
        assign c = y[8] ^ (a[0] & b[0]);
      endmodule|};
      {|module m (input clk, input [3:0] d, output reg [3:0] q, output [3:0] n);
        always @(posedge clk) q <= q ^ d;
        assign n = q + 4'h3;
      endmodule|} ]
  in
  List.iter
    (fun src ->
      let c = build src in
      let mapped, _ = N.Lutmap.map ~k:4 c in
      match S.Equiv.check c mapped with
      | S.Equiv.Equivalent -> ()
      | S.Equiv.Unknown -> Alcotest.fail "unbudgeted equivalence check returned Unknown"
      | S.Equiv.Different cex ->
        Alcotest.fail
          (Format.asprintf "mapping changed the function: %a"
             S.Equiv.pp_counterexample cex))
    circuits

let test_sat_detects_difference () =
  let module S = Alice_sat in
  let a = build "module m (input [3:0] a, output [3:0] y); assign y = a + 4'h1; endmodule" in
  let b = build "module m (input [3:0] a, output [3:0] y); assign y = a + 4'h2; endmodule" in
  match S.Equiv.check a b with
  | S.Equiv.Different _ -> ()
  | S.Equiv.Equivalent | S.Equiv.Unknown ->
    Alcotest.fail "distinct circuits declared equivalent"

(* Truth tables against a per-assignment oracle: for every LUT the
   mapper emits on whole benchmark designs, walk the cone once per leaf
   pattern (memoized per pattern) over the original gates and compare
   with the table the mapper computed. *)
let eval_cone (producer : (N.Circuit.net, N.Circuit.gate) Hashtbl.t) assignment net =
  let memo = Hashtbl.create 16 in
  let rec eval n =
    match Hashtbl.find_opt assignment n with
    | Some v -> v
    | None -> (
      match Hashtbl.find_opt memo n with
      | Some v -> v
      | None ->
        let g = Hashtbl.find producer n in
        let v = N.Circuit.eval_gate g.N.Circuit.kind (Array.map eval g.N.Circuit.inputs) in
        Hashtbl.add memo n v;
        v)
  in
  eval net

let test_truth_tables_match_cones () =
  let module B = Alice_benchmarks.Suite in
  List.iter
    (fun name ->
      let c = N.Synth.synthesize (B.elaborate (Option.get (B.find name))) in
      let producer = Hashtbl.create 1024 in
      List.iter
        (fun (g : N.Circuit.gate) -> Hashtbl.replace producer g.output g)
        (N.Circuit.gates_in_order c);
      List.iter
        (fun k ->
          let _, mapping = N.Lutmap.map ~k c in
          List.iter
            (fun (net, leaves, table) ->
              let assignment = Hashtbl.create 8 in
              Array.iteri
                (fun idx bit ->
                  Hashtbl.reset assignment;
                  List.iteri
                    (fun b leaf -> Hashtbl.replace assignment leaf ((idx lsr b) land 1 = 1))
                    leaves;
                  if bit <> eval_cone producer assignment net then
                    Alcotest.failf "%s k=%d: LUT %d row %d differs from its cone" name k net idx)
                table)
            mapping.N.Lutmap.luts)
        [ 4; 6 ])
    [ "GCD"; "SHA256"; "SOC" ]

let tests =
  [ Alcotest.test_case "k-feasibility" `Quick test_k_feasibility;
    Alcotest.test_case "sat equivalence of mapping" `Quick test_sat_equivalence;
    Alcotest.test_case "sat detects difference" `Quick test_sat_detects_difference;
    Alcotest.test_case "combinational equivalence" `Quick test_equivalence_comb;
    Alcotest.test_case "sequential equivalence" `Quick test_equivalence_seq;
    Alcotest.test_case "rom compression" `Quick test_rom_compression;
    Alcotest.test_case "identity outputs are free" `Quick test_alias_outputs_free;
    Alcotest.test_case "depth reported" `Quick test_depth_reported;
    Alcotest.test_case "truth tables match cones" `Quick test_truth_tables_match_cones;
    QCheck_alcotest.to_alcotest map_equiv_prop ]
