(* Structural fabric round trip: generate the configurable LUT-array
   Verilog, parse and synthesize it with the bundled frontend, load the
   generated bitstream through the configuration shift chain, and check
   the fabric then implements the redacted module. *)

module V = Alice_verilog
module N = Alice_netlist
module F = Alice_fabric

let flow_text ~config text =
  Alice.Flow.run_request
    (Alice.Flow.request ~config (Alice.Flow.Text { text; file = None }))

let arch = F.Arch.default

let build_fabric src =
  let c = N.Synth.synthesize (V.Elaborate.elaborate (V.Parser.parse src)) in
  let mapped = N.Lutmap.map ~k:4 c in
  let impl =
    match
      F.Size_search.minimum arch ~min_size:2 ~max_size:8 ~target_utilization:0.6 mapped
    with
    | Ok impl -> impl
    | Error f -> Alcotest.fail (F.Size_search.failure_to_string f)
  in
  let bits = F.Bitstream.generate impl.F.Size_search.placement mapped in
  let text =
    F.Emit.structural_wrapper ~name:"fab" ~placement:impl.F.Size_search.placement
      ~mapped
  in
  (mapped, impl, bits, text)

(* simulate the structural fabric: returns a step function over gpio *)
let boot (bits : bool array) (text : string) =
  let ast = V.Parser.parse ~file:"fab.v" text in
  let c = N.Synth.synthesize (V.Elaborate.elaborate ~top:"fab" ast) in
  let sim = N.Simulate.create c in
  (* shift the bitstream in MSB-first: after N shifts cfg.(j) = bit j *)
  N.Simulate.set_input sim "cfg_en" 1;
  for j = Array.length bits - 1 downto 0 do
    N.Simulate.set_input_bits sim "cfg_in" [| bits.(j) |];
    N.Simulate.step sim
  done;
  N.Simulate.set_input sim "cfg_en" 0;
  sim

let gpio_offsets (mapped : N.Circuit.t) =
  (* port name -> (offset, width) within gpio_in / gpio_out *)
  let build ports =
    let tbl = Hashtbl.create 8 in
    let off = ref 0 in
    List.iter
      (fun (name, nets) ->
        Hashtbl.replace tbl name (!off, Array.length nets);
        off := !off + Array.length nets)
      ports;
    tbl
  in
  (build mapped.N.Circuit.inputs, build mapped.N.Circuit.outputs)

let test_combinational_roundtrip () =
  (* 6-input, 4-output mixer: every LUT content matters *)
  let src =
    {|module mix (input [5:0] a, output [3:0] y);
      assign y[0] = a[0] ^ (a[5] & a[3]);
      assign y[1] = (a[1] | a[2]) ^ a[4];
      assign y[2] = (a[0] & a[1]) | (a[2] & ~a[3]);
      assign y[3] = ^a;
    endmodule|}
  in
  let mapped, _impl, bits, text = build_fabric src in
  let sim = boot bits text in
  let ins, outs = gpio_offsets mapped in
  let a_off, a_w = Hashtbl.find ins "a" in
  let y_off, y_w = Hashtbl.find outs "y" in
  Alcotest.(check int) "a width" 6 a_w;
  (* reference: simulate the original module *)
  let ref_sim =
    N.Simulate.create
      (N.Synth.synthesize (V.Elaborate.elaborate (V.Parser.parse src)))
  in
  for a = 0 to 63 do
    let gpio = Array.make (Hashtbl.fold (fun _ (o, w) m -> max m (o + w)) ins 0) false in
    for i = 0 to a_w - 1 do
      gpio.(a_off + i) <- (a lsr i) land 1 = 1
    done;
    N.Simulate.set_input_bits sim "gpio_in" gpio;
    N.Simulate.eval sim;
    let got = ref 0 in
    let out_bits = N.Simulate.read_output_bits sim "gpio_out" in
    for i = 0 to y_w - 1 do
      if out_bits.(y_off + i) then got := !got lor (1 lsl i)
    done;
    N.Simulate.set_input ref_sim "a" a;
    N.Simulate.eval ref_sim;
    Alcotest.(check int)
      (Printf.sprintf "fabric output for a=%d" a)
      (N.Simulate.read_output ref_sim "y")
      !got
  done

let test_sequential_roundtrip () =
  (* a loadable register: fabric FFs must follow the D logic cycle by
     cycle once configuration is done *)
  let src =
    {|module regld (input clk, input ld, input [3:0] d, output reg [3:0] q);
      always @(posedge clk) begin
        if (ld) q <= d;
      end
    endmodule|}
  in
  let mapped, _impl, bits, text = build_fabric src in
  let sim = boot bits text in
  let ins, outs = gpio_offsets mapped in
  let ld_off, _ = Hashtbl.find ins "ld" in
  let d_off, d_w = Hashtbl.find ins "d" in
  let q_off, q_w = Hashtbl.find outs "q" in
  let gpio_w = Hashtbl.fold (fun _ (o, w) m -> max m (o + w)) ins 0 in
  let drive ~ld ~d =
    let gpio = Array.make gpio_w false in
    gpio.(ld_off) <- ld;
    for i = 0 to d_w - 1 do
      gpio.(d_off + i) <- (d lsr i) land 1 = 1
    done;
    N.Simulate.set_input_bits sim "gpio_in" gpio;
    N.Simulate.step sim;
    N.Simulate.eval sim;
    let out_bits = N.Simulate.read_output_bits sim "gpio_out" in
    let q = ref 0 in
    for i = 0 to q_w - 1 do
      if out_bits.(q_off + i) then q := !q lor (1 lsl i)
    done;
    !q
  in
  (* registers power up at 0 after configuration (FFs held during load) *)
  Alcotest.(check int) "load 9" 9 (drive ~ld:true ~d:9);
  Alcotest.(check int) "hold" 9 (drive ~ld:false ~d:3);
  Alcotest.(check int) "load 3" 3 (drive ~ld:true ~d:3);
  Alcotest.(check int) "hold 3" 3 (drive ~ld:false ~d:15)

let test_wrong_bitstream_changes_function () =
  let src =
    {|module mix (input [5:0] a, output [3:0] y);
      assign y[0] = a[0] ^ (a[5] & a[3]);
      assign y[1] = (a[1] | a[2]) ^ a[4];
      assign y[2] = (a[0] & a[1]) | (a[2] & ~a[3]);
      assign y[3] = ^a;
    endmodule|}
  in
  let mapped, _impl, bits, text = build_fabric src in
  (* complement the LUT region: every configured truth table inverts *)
  let wrong = Array.mapi (fun i b -> if i < 64 then not b else b) bits in
  let sim = boot wrong text in
  let ins, _ = gpio_offsets mapped in
  let a_off, a_w = Hashtbl.find ins "a" in
  let ref_sim =
    N.Simulate.create
      (N.Synth.synthesize (V.Elaborate.elaborate (V.Parser.parse src)))
  in
  let differs = ref false in
  for a = 0 to 63 do
    let gpio = Array.make (Hashtbl.fold (fun _ (o, w) m -> max m (o + w)) ins 0) false in
    for i = 0 to a_w - 1 do
      gpio.(a_off + i) <- (a lsr i) land 1 = 1
    done;
    N.Simulate.set_input_bits sim "gpio_in" gpio;
    N.Simulate.eval sim;
    N.Simulate.set_input ref_sim "a" a;
    N.Simulate.eval ref_sim;
    let out_bits = N.Simulate.read_output_bits sim "gpio_out" in
    let got = ref 0 in
    Array.iteri (fun i b -> if i < 4 && b then got := !got lor (1 lsl i)) out_bits;
    if !got <> N.Simulate.read_output ref_sim "y" then differs := true
  done;
  Alcotest.(check bool) "a corrupted bitstream changes the function" true !differs

let test_scan_chain () =
  let src = "module inv (input [3:0] a, output [3:0] y); assign y = ~a; endmodule" in
  let _, impl, bits, text = build_fabric src in
  ignore impl;
  (* cfg_out is the tail of the chain: shifting the full bitstream plus
     the chain length drains the first bits back out *)
  let ast = V.Parser.parse text in
  let c = N.Synth.synthesize (V.Elaborate.elaborate ~top:"fab" ast) in
  let sim = N.Simulate.create c in
  N.Simulate.set_input sim "cfg_en" 1;
  (* shift in the bitstream and observe: after k shifts, cfg_out carries
     the bit fed k - total steps ago *)
  let n = Array.length bits in
  for j = n - 1 downto 0 do
    N.Simulate.set_input_bits sim "cfg_in" [| bits.(j) |];
    N.Simulate.step sim
  done;
  (* the MSB of cfg now holds bits.(n-1): cfg_out reads it *)
  N.Simulate.eval sim;
  Alcotest.(check bool) "cfg_out = last chain bit" bits.(n - 1)
    (N.Simulate.read_output_bits sim "cfg_out").(0)

(* Simulate a redacted Structural view with each fabric's bitstream
   loaded through its own configuration pins. *)
let program_structural (r : Alice.Redact.redacted) : N.Simulate.t =
  let module A = Alice in
  let ast = V.Parser.parse ~file:"structural.v" r.A.Redact.verilog in
  let c = N.Synth.synthesize (V.Elaborate.elaborate ~top:"top" ast) in
  let sim = N.Simulate.create c in
  List.iter
    (fun (site : A.Redact.efpga_site) ->
      let en = site.A.Redact.efpga_name ^ "_cfg_en" in
      let cin = site.A.Redact.efpga_name ^ "_cfg_in" in
      let clk = site.A.Redact.efpga_name ^ "_cfg_clk" in
      N.Simulate.set_input sim en 1;
      let bits = site.A.Redact.bitstream in
      for j = Array.length bits - 1 downto 0 do
        N.Simulate.set_input sim cin (if bits.(j) then 1 else 0);
        (* a full clock cycle on this fabric's cfg_clk *)
        N.Simulate.set_input sim clk 1;
        N.Simulate.step sim;
        N.Simulate.set_input sim clk 0;
        N.Simulate.eval sim
      done;
      N.Simulate.set_input sim en 0)
    r.A.Redact.sites;
  sim

(* full-system round trip: redact a design with Structural view, load
   every fabric's bitstream through its chip pins, and compare against
   the original for all inputs *)
let test_redacted_structural_system () =
  let module A = Alice in
  let module CFG = Alice_config in
  let demo_src =
    {|module f1 (input [7:0] a, output [7:0] y); assign y = a + 8'h1; endmodule
      module f2 (input [7:0] a, output [7:0] y); assign y = a ^ 8'h55; endmodule
      module f3 (input [7:0] a, output [7:0] y); assign y = {a[0], a[7:1]}; endmodule
      module top (input [7:0] x, output [7:0] out1, output [7:0] out2);
        wire [7:0] t;
        f1 u1 (.a(x), .y(t));
        f2 u2 (.a(t), .y(out1));
        f3 u3 (.a(x), .y(out2));
      endmodule|}
  in
  let cfg =
    { CFG.Flow_config.default with
      CFG.Flow_config.max_io_pins = 40; max_efpgas = 2;
      min_fabric_size = 2; max_fabric_size = 12 }
  in
  let flow = flow_text ~config:cfg demo_src in
  match A.Flow.redact ~view:A.Redact.Structural flow with
  | None -> Alcotest.fail "no solution"
  | Some r ->
    let sim = program_structural r in
    (* compare against the original design on every input *)
    let ref_sim =
      N.Simulate.create
        (N.Synth.synthesize (V.Elaborate.elaborate ~top:"top" (V.Parser.parse demo_src)))
    in
    for x = 0 to 255 do
      N.Simulate.set_input sim "x" x;
      N.Simulate.eval sim;
      N.Simulate.set_input ref_sim "x" x;
      N.Simulate.eval ref_sim;
      Alcotest.(check int)
        (Printf.sprintf "out1 for x=%d" x)
        (N.Simulate.read_output ref_sim "out1")
        (N.Simulate.read_output sim "out1");
      Alcotest.(check int)
        (Printf.sprintf "out2 for x=%d" x)
        (N.Simulate.read_output ref_sim "out2")
        (N.Simulate.read_output sim "out2")
    done

(* Two clusters of one module mix in different member orders: u_a|u_k
   puts m_add's ports first on the fabric's GPIO, u_k|u_z puts k_xor's.
   Each must be characterized as its own netlist, so that the bitstream
   it is redacted with drives its own wiring: the best solution and
   every valid two-member candidate, programmed through its cfg pins,
   compute the original outputs. *)
let test_structural_member_order () =
  let module A = Alice in
  let module CFG = Alice_config in
  let src =
    {|module m_add (input [7:0] a, output [7:0] y); assign y = a + 8'h3; endmodule
      module k_xor (input [7:0] b, output [7:0] z); assign z = b ^ 8'h5a; endmodule
      module top (input [7:0] x, input [7:0] w, input [7:0] v,
                  output [7:0] o1, output [7:0] o2, output [7:0] o3);
        m_add u_a (.a(x), .y(o1));
        k_xor u_k (.b(w), .z(o2));
        m_add u_z (.a(v), .y(o3));
      endmodule|}
  in
  let cfg =
    { CFG.Flow_config.default with
      CFG.Flow_config.max_io_pins = 32; max_efpgas = 1;
      min_fabric_size = 4; max_fabric_size = 12 }
  in
  let flow = flow_text ~config:cfg src in
  let ref_sim =
    N.Simulate.create
      (N.Synth.synthesize (V.Elaborate.elaborate ~top:"top" (V.Parser.parse src)))
  in
  (* outputs of 256 vectors, o1-o3 each, that differ from the original *)
  let wrong (solution : A.Selection.solution) =
    let sim =
      program_structural
        (A.Redact.run ~view:A.Redact.Structural flow.A.Flow.design
           flow.A.Flow.ast solution)
    in
    let n = ref 0 in
    for i = 0 to 255 do
      List.iter
        (fun (port, value) ->
          N.Simulate.set_input sim port value;
          N.Simulate.set_input ref_sim port value)
        [ ("x", i); ("w", 255 - i); ("v", i * 37 land 255) ];
      N.Simulate.eval sim;
      N.Simulate.eval ref_sim;
      List.iter
        (fun port ->
          if N.Simulate.read_output sim port <> N.Simulate.read_output ref_sim port
          then incr n)
        [ "o1"; "o2"; "o3" ]
    done;
    !n
  in
  let name (solution : A.Selection.solution) =
    String.concat ","
      (List.map
         (fun (e : A.Selection.efpga_impl) ->
           e.A.Selection.cluster.A.Clustering.key)
         solution.A.Selection.efpgas)
  in
  let best =
    match flow.A.Flow.selection.A.Selection.best with
    | Some best -> best
    | None -> Alcotest.fail "no solution"
  in
  Alcotest.(check string) "best solution" "top.u_a|top.u_k" (name best);
  let pairs =
    List.filter_map
      (fun (e : A.Selection.efpga_impl) ->
        if A.Clustering.member_count e.A.Selection.cluster <> 2 then None
        else
          Some
            { A.Selection.efpgas = [ e ]; total_score = e.A.Selection.score;
              redacted_instances = 2; is_final = true })
      flow.A.Flow.selection.A.Selection.valid
  in
  Alcotest.(check bool) "two-member candidates" true (List.length pairs >= 2);
  List.iter
    (fun solution ->
      Alcotest.(check int) (name solution ^ ": wrong outputs of 768") 0
        (wrong solution))
    (best :: pairs)

let tests =
  [ Alcotest.test_case "combinational round trip" `Quick test_combinational_roundtrip;
    Alcotest.test_case "redacted structural system" `Quick test_redacted_structural_system;
    Alcotest.test_case "sequential round trip" `Quick test_sequential_roundtrip;
    Alcotest.test_case "wrong bitstream detected" `Quick test_wrong_bitstream_changes_function;
    Alcotest.test_case "scan chain" `Quick test_scan_chain;
    Alcotest.test_case "structural member order" `Quick
      test_structural_member_order ]
