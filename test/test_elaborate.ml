(* Elaboration: parameters, widths, specialization, hierarchy queries. *)

module V = Alice_verilog

let elaborated ?top src = V.Elaborate.elaborate ?top (V.Parser.parse src)

let test_parameters () =
  let d =
    elaborated
      {|module sub #(parameter W = 4) (input [W-1:0] a, output [2*W-1:0] y);
        assign y = {a, a};
      endmodule
      module top (input [7:0] x, output [15:0] y1, output [7:0] y2);
        sub #(.W(8)) u1 (.a(x), .y(y1));
        sub u2 (.a(x[3:0]), .y(y2));
      endmodule|}
  in
  let u1 = V.Elaborate.find_emodule d "sub$W_8" in
  Alcotest.(check int) "specialized width" 16 (V.Elaborate.net_width u1 "y");
  let u2 = V.Elaborate.find_emodule d "sub" in
  Alcotest.(check int) "default width" 8 (V.Elaborate.net_width u2 "y");
  Alcotest.(check int) "module count excludes top" 2 (V.Design.module_count d)

let test_localparam_expressions () =
  let d =
    elaborated
      {|module m (input [7:0] a, output [7:0] y);
        localparam A = 2 + 3 * 2;
        localparam B = A > 4 ? 1 : 0;
        localparam C = (1 << 4) - B;
        wire [C-1:0] big;
        assign big = {7'h0, a};
        assign y = big[7:0];
      endmodule|}
  in
  let m = V.Elaborate.find_emodule d "m" in
  Alcotest.(check int) "computed width" 15 (V.Elaborate.net_width m "big")

let test_port_directions_and_pins () =
  let d =
    elaborated
      {|module leaf (input clk, input [3:0] a, output [7:0] q, inout io);
        assign q = {a, a};
      endmodule
      module top (input clk, input [3:0] x, output [7:0] y);
        wire pad;
        leaf u (.clk(clk), .a(x), .q(y), .io(pad));
      endmodule|}
  in
  let leaf = V.Elaborate.find_emodule d "leaf" in
  Alcotest.(check int) "total pins" 14 (V.Elaborate.io_pin_count leaf);
  Alcotest.(check (list (pair string int))) "port directions and widths"
    [ ("input", 1); ("input", 4); ("output", 8); ("inout", 1) ]
    (List.map
       (fun (p : V.Elaborate.eport) ->
         ( (match p.dir with
           | V.Ast.Input -> "input"
           | V.Ast.Output -> "output"
           | V.Ast.Inout -> "inout"),
           p.width ))
       leaf.V.Elaborate.em_ports)

let test_detect_top () =
  let src =
    {|module a (output y); assign y = 1'h1; endmodule
      module b (output y); a u (.y(y)); endmodule|}
  in
  let d = elaborated src in
  Alcotest.(check string) "auto top" "b" d.V.Elaborate.d_top;
  let d2 = elaborated ~top:"a" src in
  Alcotest.(check string) "explicit top" "a" d2.V.Elaborate.d_top

let test_instance_tree () =
  let d =
    elaborated
      {|module leaf (output y); assign y = 1'h0; endmodule
        module mid (output y); wire t; leaf l1 (.y(t)); leaf l2 (.y(y)); endmodule
        module top (output y); mid m (.y(y)); endmodule|}
  in
  Alcotest.(check int) "instances" 3 (V.Design.instance_count d);
  let paths =
    List.map (fun (n : V.Design.tree) -> n.path) (V.Design.all_instances d)
  in
  Alcotest.(check (list string)) "paths"
    [ "top.m"; "top.m.l1"; "top.m.l2" ] paths;
  let leaves =
    List.filter (fun (n : V.Design.tree) -> n.module_name = "leaf")
      (V.Design.all_instances d)
  in
  Alcotest.(check int) "leaf instances" 2 (List.length leaves)

let test_positional_bindings () =
  let d =
    elaborated
      {|module sub (input [3:0] a, input [3:0] b, output [3:0] y);
        assign y = a & b;
      endmodule
      module top (input [3:0] p, input [3:0] q, output [3:0] r);
        sub u (p, q, r);
      endmodule|}
  in
  let top = V.Elaborate.find_emodule d "top" in
  match top.V.Elaborate.em_instances with
  | [ inst ] ->
    let names = List.map fst inst.V.Elaborate.ei_bindings in
    Alcotest.(check (list string)) "bound in port order" [ "a"; "b"; "y" ] names
  | _ -> Alcotest.fail "expected one instance"

let test_errors () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | exception V.Loc.Error _ -> ()
    | _ -> Alcotest.fail "expected elaboration failure"
  in
  expect_invalid (fun () ->
      elaborated "module m (output y); unknown u (.y(y)); endmodule");
  expect_invalid (fun () ->
      elaborated
        {|module a (output y); b u (.y(y)); endmodule
          module b (output y); a u (.y(y)); endmodule|});
  expect_invalid (fun () -> elaborated ~top:"nope" "module m (output y); assign y = 1'h0; endmodule")

let tests =
  [ Alcotest.test_case "parameters and specialization" `Quick test_parameters;
    Alcotest.test_case "localparam expressions" `Quick test_localparam_expressions;
    Alcotest.test_case "port directions and pins" `Quick test_port_directions_and_pins;
    Alcotest.test_case "detect top" `Quick test_detect_top;
    Alcotest.test_case "instance tree" `Quick test_instance_tree;
    Alcotest.test_case "positional bindings" `Quick test_positional_bindings;
    Alcotest.test_case "errors" `Quick test_errors ]
