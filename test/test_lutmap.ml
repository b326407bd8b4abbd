(* LUT mapping: functional equivalence, k-feasibility, and quality
   sanity bounds. *)

module V = Alice_verilog
module N = Alice_netlist

let build src = N.Synth.synthesize (V.Elaborate.elaborate (V.Parser.parse src))

(* A mapped circuit's LUTs as (output net, leaves, truth table), in its
   gate order; any other gate fails the test *)
let luts_of (mapped : N.Circuit.t) : (N.Circuit.net * int list * bool array) list =
  List.map
    (fun (g : N.Circuit.gate) ->
      match g.N.Circuit.kind with
      | N.Circuit.Lut table ->
        (g.N.Circuit.output, Array.to_list g.N.Circuit.inputs, table)
      | _ -> Alcotest.fail "non-LUT gate in mapped circuit")
    (N.Circuit.gates_in_order mapped)

let test_k_feasibility () =
  let c = build
    {|module m (input [7:0] a, input [7:0] b, output [7:0] y);
      assign y = (a + b) * (a ^ b);
    endmodule|}
  in
  List.iter
    (fun k ->
      (* every gate in the mapped circuit is a LUT ([luts_of] fails
         otherwise) of at most k leaves *)
      List.iter
        (fun (_, leaves, table) ->
          Alcotest.(check bool)
            (Printf.sprintf "cut size <= %d" k)
            true
            (List.length leaves <= k);
          Alcotest.(check int) "table size" (1 lsl List.length leaves)
            (Array.length table))
        (luts_of (N.Lutmap.map ~k c)))
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
  let mapped = N.Lutmap.map ~k:4 c in
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
  let mapped = N.Lutmap.map ~k:4 c in
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
  let luts = N.Circuit.lut_count (N.Lutmap.map ~k:4 c) in
  Alcotest.(check bool)
    (Printf.sprintf "16x4 ROM maps to <= 8 LUTs (got %d)" luts)
    true (luts <= 8)

let test_alias_outputs_free () =
  (* wiring an input straight to an output must not cost a LUT *)
  let c = build "module m (input [7:0] a, output [7:0] y); assign y = a; endmodule" in
  Alcotest.(check int) "identity is free" 0
    (N.Circuit.lut_count (N.Lutmap.map ~k:4 c))

let test_depth_reported () =
  let c = build
    {|module m (input [15:0] a, input [15:0] b, output [15:0] y);
      assign y = a + b;
    endmodule|}
  in
  let depth = N.Lutmap.depth (N.Lutmap.map ~k:4 c) in
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
      let mapped = N.Lutmap.map ~k:4 c in
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
      let mapped = N.Lutmap.map ~k:4 c in
      match S.Equiv.check c mapped with
      | S.Equiv.Equivalent -> ()
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
  | S.Equiv.Equivalent ->
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
            (luts_of (N.Lutmap.map ~k c)))
        [ 4; 6 ])
    [ "GCD"; "SHA256"; "SOC" ]

(* Differential: the array mapper against the set-based reference
   ([Lutmap_oracle]) on paper cluster circuits, whole designs, random
   mux-heavy circuits and deep ladders, at every k from 2 to 6.
   Mappings must be structurally equal, mapped circuit and LUT
   list alike. Where the reference left a gate uncovered (a 3-input mux
   at k = 2), the array mapper must raise instead. *)

let distinct circuits =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun c ->
      let key = Digest.string (Marshal.to_string c [ Marshal.No_sharing ]) in
      (not (Hashtbl.mem seen key)) && (Hashtbl.add seen key (); true))
    circuits

let cluster_netlists names =
  let module B = Alice_benchmarks.Suite in
  List.concat_map
    (fun name ->
      let b = Option.get (B.find name) in
      let design = B.elaborate b in
      let df = Alice_analysis.Dataflow.build design in
      List.concat_map
        (fun config ->
          Alice.Clustering.run df config (Alice.Filtering.run df config)
          |> List.map (Alice.Characterize.cluster_netlist design))
        [ B.config1 b; B.config2 b ])
    names
  |> distinct

let whole_design name =
  let module B = Alice_benchmarks.Suite in
  N.Synth.synthesize (B.elaborate (Option.get (B.find name)))

(* A seeded random circuit over at most 6 inputs and a few flip-flops:
   mostly muxes, ANDs and XORs, with buffers, inverters and 3-input
   LUTs mixed in, [size] to [4 * size - 1] gates. Every gate reads
   earlier nets, so there is no combinational loop. *)
let random_circuit ~size seed =
  let st = Random.State.make [| 0x10f; seed |] in
  let c = N.Circuit.create (Printf.sprintf "rnd%d" seed) in
  let pool = ref (Array.to_list (N.Circuit.add_input c "a" (2 + Random.State.int st 5))) in
  let qs = List.init (Random.State.int st 3) (fun _ -> N.Circuit.fresh_net c) in
  pool := !pool @ qs;
  let pick () =
    (* favour recent nets, so cones get deep and reconverge *)
    let n = List.length !pool in
    List.nth !pool (min (n - 1) (Random.State.int st (min n 8)))
  in
  let kinds = N.Circuit.[| Mux; Mux; Mux; And; Xor; Xor; Or; Not; Buf; Lut [||] |] in
  for _ = 1 to size + Random.State.int st (3 * size) do
    let kind =
      match kinds.(Random.State.int st (Array.length kinds)) with
      | N.Circuit.Lut _ -> N.Circuit.Lut (Array.init 8 (fun _ -> Random.State.bool st))
      | kind -> kind
    in
    let arity =
      match kind with
      | N.Circuit.Not | N.Circuit.Buf -> 1
      | N.Circuit.Mux | N.Circuit.Lut _ -> 3
      | _ -> 2
    in
    pool := N.Circuit.add_gate c kind (Array.init arity (fun _ -> pick ())) :: !pool
  done;
  List.iter (fun q -> N.Circuit.add_dff_q c ~d:(pick ()) ~q) qs;
  N.Circuit.set_output c "y" (Array.init (1 + Random.State.int st 6) (fun _ -> pick ()));
  c

(* Two rails of 120 rungs, each rung reading both rails and a fresh
   input: every cut of a rung holds nets of both rails, so area flow
   about doubles per rung and passes 2^53, where float sums round and
   their order shows. No paper design gets there (SoC at k = 3 peaks
   near 2.7e15). *)
let ladder seed =
  let rungs = 120 in
  let st = Random.State.make [| 0x1add; seed |] in
  let c = N.Circuit.create (Printf.sprintf "ladder%d" seed) in
  let x = N.Circuit.add_input c "x" rungs and y = N.Circuit.add_input c "y" rungs in
  let kinds = N.Circuit.[| Mux; Xor; And; Or; Xnor |] in
  let rung a b z =
    match kinds.(Random.State.int st (Array.length kinds)) with
    | N.Circuit.Mux -> N.Circuit.add_gate c N.Circuit.Mux [| z; a; b |]
    | kind -> N.Circuit.add_gate c kind [| N.Circuit.add_gate c N.Circuit.Xor [| a; z |]; b |]
  in
  let a = ref x.(0) and b = ref y.(0) in
  for i = 1 to rungs - 1 do
    let a' = rung !a !b x.(i) and b' = rung !b !a y.(i) in
    a := a';
    b := b'
  done;
  N.Circuit.set_output c "o" [| !a; !b |];
  c

let differential_corpus =
  lazy
    (cluster_netlists [ "GCD"; "SASC"; "USB_PHY"; "FIR"; "IIR"; "SHA256" ]
    @ List.map whole_design [ "DES3"; "SOC" ]
    @ List.init 48 (random_circuit ~size:20)
    @ List.init 4 ladder)

let test_differential () =
  let circuits = Lazy.force differential_corpus in
  Lutmap_oracle.cap_hits := 0;
  Lutmap_oracle.uncovered := 0;
  let compared = ref 0 and refused = ref 0 in
  List.iter
    (fun c ->
      List.iter
        (fun k ->
          let before = !Lutmap_oracle.uncovered in
          let want = Lutmap_oracle.map ~k c in
          let label = Printf.sprintf "%s k=%d" c.N.Circuit.name k in
          if !Lutmap_oracle.uncovered > before then begin
            incr refused;
            match N.Lutmap.map ~k c with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.failf "%s: mapped a gate no cut covers" label
          end
          else begin
            incr compared;
            let mapped = N.Lutmap.map ~k c in
            if (mapped, luts_of mapped) <> want then
              Alcotest.failf "%s: mapping differs from the reference" label
          end)
        [ 2; 3; 4; 5; 6 ])
    circuits;
  Alcotest.(check bool)
    (Printf.sprintf "corpus crosses the 400-merge cap (%d gates)" !Lutmap_oracle.cap_hits)
    true (!Lutmap_oracle.cap_hits > 0);
  Alcotest.(check bool)
    (Printf.sprintf "most mappings compared (%d compared, %d refused)" !compared !refused)
    true (!compared > 4 * !refused)

(* k < 2 cannot cover a 2-input gate: refuse rather than leave outputs
   undriven *)
let test_k_below_two_rejected () =
  let c = build "module m (input [3:0] a, input [3:0] b, output [3:0] y); assign y = a & b; endmodule" in
  List.iter
    (fun k ->
      match N.Lutmap.map ~k c with
      | exception Invalid_argument _ -> ()
      | mapped ->
        Alcotest.failf "k=%d mapped to %d LUTs instead of raising" k
          (N.Circuit.lut_count mapped))
    [ 1; 0; -1 ];
  (* a configuration built in code skips [of_doc]'s check: every cluster
     then fails to characterize, and no fabric is chosen *)
  let module B = Alice_benchmarks.Suite in
  let gcd = Option.get (B.find "GCD") in
  let config = { (B.config1 gcd) with Alice_config.Flow_config.lut_inputs = 1; jobs = 1 } in
  let flow =
    Alice.Flow.run_request
      (Alice.Flow.request ~config (Alice.Flow.Text { text = gcd.B.source; file = None }))
  in
  Alcotest.(check bool) "clusters characterized" true (flow.Alice.Flow.characterized <> []);
  List.iter
    (fun (ch : Alice.Characterize.characterization) ->
      match ch.Alice.Characterize.outcome with
      | Alice.Characterize.Failed _ -> ()
      | _ -> Alcotest.fail "a cluster characterized at k = 1")
    flow.Alice.Flow.characterized;
  Alcotest.(check bool) "no solution" true (flow.Alice.Flow.selection.Alice.Selection.best = None)

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
    QCheck_alcotest.to_alcotest map_equiv_prop;
    Alcotest.test_case "differential against the set-based mapper" `Quick test_differential;
    Alcotest.test_case "k below 2 rejected" `Quick test_k_below_two_rejected ]
