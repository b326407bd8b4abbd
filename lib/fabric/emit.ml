(** Verilog emission for eFPGA fabric instances.

    Two views are produced:
    - the *opaque* wrapper: the module the foundry sees — GPIO vectors
      plus a serial configuration chain, with no functional body;
    - the *programmed* view: behaviorally equivalent to the redacted
      cluster, used for simulation and for the equivalence tests that
      check redaction preserved the design's function.

    The redaction driver ({!Alice.Redact}) chooses which view to splice
    into the emitted design. *)

let wrapper_ports ~(gpio_in : int) ~(gpio_out : int) : string =
  Printf.sprintf
    "  input cfg_clk;\n  input cfg_en;\n  input cfg_in;\n  output cfg_out;\n  input [%d:0] gpio_in;\n  output [%d:0] gpio_out;\n"
    (max 0 (gpio_in - 1))
    (max 0 (gpio_out - 1))

(** The opaque fabric stub: all logic is hidden behind the configuration
    chain; [cfg_out] closes the scan chain so several eFPGAs can share
    one programming interface. *)
let opaque_wrapper ~(name : string) ~(fabric : Fabric.t) ~(gpio_in : int)
    ~(gpio_out : int) : string =
  let bits = Bitstream.length fabric in
  Printf.sprintf
    "// eFPGA fabric %s: %s, %d configuration bits\n\
     // Structural netlist produced by the fabric generator; functionality\n\
     // is defined only by the (secret) bitstream.\n\
     module %s (cfg_clk, cfg_en, cfg_in, cfg_out, gpio_in, gpio_out);\n\
     %s\
     \  assign cfg_out = cfg_in; // stub scan-chain closure (the structural view implements the real chain)\n\
     \  assign gpio_out = {%d{1'h0}}; // unconfigured fabric drives 0\n\
     endmodule\n"
    name (Fabric.size_label fabric) bits name
    (wrapper_ports ~gpio_in ~gpio_out)
    (max 1 gpio_out)

(** A programmed fabric: instantiates the original cluster modules and
    wires them to GPIO slices. [members] lists, for each redacted
    instance, its module name and the widths of its input and output
    ports in order. Slices are assigned in member order, inputs packed
    into [gpio_in] and outputs into [gpio_out]. *)
type member = {
  member_module : string;
  member_instance : string;
  member_params : (string * int) list;
      (* parameter overrides of the redacted instance, so the programmed
         view re-instantiates the same specialization *)
  in_ports : (string * int) list;   (* port name, width *)
  out_ports : (string * int) list;
}

let programmed_wrapper ~(name : string) ~(fabric : Fabric.t) ~(gpio_in : int)
    ~(gpio_out : int) ~(members : member list) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "// eFPGA fabric %s (%s), programmed view: behavior equals the\n\
        // redacted cluster; the fabricated netlist carries no such body.\n\
        module %s (cfg_clk, cfg_en, cfg_in, cfg_out, gpio_in, gpio_out);\n%s"
       name (Fabric.size_label fabric) name
       (wrapper_ports ~gpio_in ~gpio_out));
  Buffer.add_string buf "  assign cfg_out = cfg_in;\n";
  let in_off = ref 0 and out_off = ref 0 in
  List.iter
    (fun m ->
      let bindings = Buffer.create 128 in
      List.iter
        (fun (port, w) ->
          if Buffer.length bindings > 0 then Buffer.add_string bindings ", ";
          Buffer.add_string bindings
            (Printf.sprintf ".%s(gpio_in[%d:%d])" port (!in_off + w - 1) !in_off);
          in_off := !in_off + w)
        m.in_ports;
      List.iter
        (fun (port, w) ->
          if Buffer.length bindings > 0 then Buffer.add_string bindings ", ";
          Buffer.add_string bindings
            (Printf.sprintf ".%s(gpio_out[%d:%d])" port (!out_off + w - 1) !out_off);
          out_off := !out_off + w)
        m.out_ports;
      let params =
        match m.member_params with
        | [] -> ""
        | ps ->
          Printf.sprintf " #(%s)"
            (String.concat ", "
               (List.map (fun (n, v) -> Printf.sprintf ".%s(%d)" n v) ps))
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s%s %s (%s);\n" m.member_module params
           m.member_instance (Buffer.contents bindings)))
    members;
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf

(* ---------- structural fabric view ---------- *)

module Circuit = Alice_netlist.Circuit

(** The structural fabric: real configurable hardware. A configuration
    shift register holds the full bitstream ({!Bitstream.layout} bit
    positions); each logic element reads its 16 truth-table bits from
    the LUT region and the element interconnect follows the placed
    netlist (the routing region of the chain is carried but, as in the
    rest of the model, not decoded bit-for-bit). Flip-flops advance on
    [cfg_clk] whenever [cfg_en] is low, so the same clock loads the
    bitstream and then runs the user logic.

    The module has the same interface as the other wrappers and is
    written in the supported Verilog subset, so the bundled frontend can
    parse, synthesize and simulate it — which is exactly what the
    bitstream round-trip tests do. *)
let structural_wrapper ~(name : string) ~(placement : Place.placement)
    ~(mapped : Circuit.t) : string =
  let fabric = placement.Place.fabric in
  let layout = Bitstream.layout fabric in
  let total_bits = layout.Bitstream.total_bits in
  let table_size = 1 lsl fabric.Fabric.arch.Arch.lut_inputs in
  let gpio_in =
    List.fold_left (fun acc (_, nets) -> acc + Array.length nets) 0
      mapped.Circuit.inputs
  and gpio_out =
    List.fold_left (fun acc (_, nets) -> acc + Array.length nets) 0
      mapped.Circuit.outputs
  in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    (Printf.sprintf
       "// eFPGA fabric %s (%s), structural view: %d configuration bits.\n\
        // LUT truth tables live at the head of the chain in placement\n\
        // order; the remaining bits model routing/IO configuration.\n\
        module %s (cfg_clk, cfg_en, cfg_in, cfg_out, gpio_in, gpio_out);\n%s"
       name (Fabric.size_label fabric) total_bits name
       (wrapper_ports ~gpio_in ~gpio_out));
  Buffer.add_string buf
    (Printf.sprintf "  reg [%d:0] cfg;\n" (total_bits - 1));
  Buffer.add_string buf
    (Printf.sprintf
       "  always @(posedge cfg_clk) begin\n\
        \    if (cfg_en) begin cfg <= {cfg[%d:0], cfg_in}; end\n\
        \  end\n\
        \  assign cfg_out = cfg[%d];\n"
       (total_bits - 2) (total_bits - 1));
  (* name every netlist net; primary input nets alias gpio_in bits *)
  let net_name = Hashtbl.create 256 in
  let off = ref 0 in
  List.iter
    (fun (_, nets) ->
      Array.iter
        (fun n ->
          Hashtbl.replace net_name n (Printf.sprintf "gpio_in[%d]" !off);
          incr off)
        nets)
    mapped.Circuit.inputs;
  let wire n =
    match Hashtbl.find_opt net_name n with
    | Some w -> w
    | None ->
      let w = Printf.sprintf "n%d" n in
      Hashtbl.replace net_name n w;
      Buffer.add_string buf (Printf.sprintf "  wire %s;\n" w);
      w
  in
  (* logic elements in placement order; each consumes one table slot of
     the LUT configuration region *)
  let lut_inputs_of = Hashtbl.create 64 in
  List.iter
    (fun (g : Circuit.gate) ->
      match g.Circuit.kind with
      | Circuit.Lut _ -> Hashtbl.replace lut_inputs_of g.Circuit.output g.Circuit.inputs
      | Circuit.Const _ | Circuit.Buf | Circuit.Not | Circuit.And
      | Circuit.Or | Circuit.Xor | Circuit.Xnor | Circuit.Nand | Circuit.Nor
      | Circuit.Mux -> ())
    (Circuit.gates_in_order mapped);
  let dff_of_q = Hashtbl.create 64 in
  List.iter
    (fun (d : Circuit.dff) -> Hashtbl.replace dff_of_q d.q d.d)
    (Circuit.dff_list mapped);
  let pos = ref 0 in
  List.iter
    (fun (clb, _) ->
      List.iter
        (fun (le : Place.logic_element) ->
          let base = !pos * table_size in
          pos := !pos + 1;
          (match le.Place.le_lut with
          | Some out -> (
            match Hashtbl.find_opt lut_inputs_of out with
            | None -> ()
            | Some inputs ->
              let out_w = wire out in
              let in_ws = Array.map wire inputs in
              (* mux tree over the truth-table slice of the chain *)
              let rec tree idx bit =
                if bit < 0 then Printf.sprintf "cfg[%d]" (base + idx)
                else
                  Printf.sprintf "(%s ? %s : %s)" in_ws.(bit)
                    (tree (idx lor (1 lsl bit)) (bit - 1))
                    (tree idx (bit - 1))
              in
              let expr =
                if Array.length inputs = 0 then Printf.sprintf "cfg[%d]" base
                else tree 0 (Array.length inputs - 1)
              in
              Buffer.add_string buf
                (Printf.sprintf "  assign %s = %s;\n" out_w expr))
          | None -> ());
          match le.Place.le_ff with
          | Some q ->
            let d = Hashtbl.find dff_of_q q in
            let qw =
              (* FF outputs need a reg declaration instead of a wire *)
              let w = Printf.sprintf "n%d" q in
              Hashtbl.replace net_name q w;
              Buffer.add_string buf (Printf.sprintf "  reg %s;\n" w);
              w
            in
            let dw = wire d in
            Buffer.add_string buf
              (Printf.sprintf
                 "  always @(posedge cfg_clk) begin\n\
                  \    if (!cfg_en) begin %s <= %s; end\n\
                  \  end\n"
                 qw dw)
          | None -> ())
        clb.Place.les)
    placement.Place.clbs;
  (* outputs *)
  let off = ref 0 in
  List.iter
    (fun (_, nets) ->
      Array.iter
        (fun n ->
          Buffer.add_string buf
            (Printf.sprintf "  assign gpio_out[%d] = %s;\n" !off (wire n));
          incr off)
        nets)
    mapped.Circuit.outputs;
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf
