(* Synthesis correctness: simulate synthesized circuits against expected
   values, including a property test of random expressions against a
   reference interpreter. *)

module V = Alice_verilog
module N = Alice_netlist

let build src =
  let d = V.Elaborate.elaborate (V.Parser.parse src) in
  N.Synth.synthesize d

let sim_of src = N.Simulate.create (build src)

(* evaluate one combinational module: inputs as (name, value) pairs *)
let eval_comb src inputs output =
  let sim = sim_of src in
  List.iter (fun (n, v) -> N.Simulate.set_input sim n v) inputs;
  N.Simulate.eval sim;
  N.Simulate.read_output sim output

let check_comb msg src inputs output expected =
  Alcotest.(check int) msg expected (eval_comb src inputs output)

let test_arith () =
  let m op = Printf.sprintf
    "module m (input [7:0] a, input [7:0] b, output [7:0] y); assign y = a %s b; endmodule" op
  in
  check_comb "add" (m "+") [ ("a", 200); ("b", 100) ] "y" 44; (* mod 256 *)
  check_comb "sub" (m "-") [ ("a", 5); ("b", 9) ] "y" 252;
  check_comb "mul" (m "*") [ ("a", 13); ("b", 11) ] "y" 143;
  check_comb "div" (m "/") [ ("a", 100); ("b", 7) ] "y" 14;
  check_comb "mod" (m "%") [ ("a", 100); ("b", 7) ] "y" 2;
  check_comb "div by zero is all ones" (m "/") [ ("a", 10); ("b", 0) ] "y" 255

let test_compare_logic () =
  let m expr = Printf.sprintf
    "module m (input [7:0] a, input [7:0] b, output y); assign y = %s; endmodule" expr
  in
  check_comb "lt true" (m "a < b") [ ("a", 3); ("b", 9) ] "y" 1;
  check_comb "lt false" (m "a < b") [ ("a", 9); ("b", 3) ] "y" 0;
  check_comb "le equal" (m "a <= b") [ ("a", 7); ("b", 7) ] "y" 1;
  check_comb "ge" (m "a >= b") [ ("a", 7); ("b", 9) ] "y" 0;
  check_comb "eq" (m "a == b") [ ("a", 42); ("b", 42) ] "y" 1;
  check_comb "neq" (m "a != b") [ ("a", 42); ("b", 41) ] "y" 1;
  check_comb "logand" (m "a && b") [ ("a", 0); ("b", 5) ] "y" 0;
  check_comb "logor" (m "a || b") [ ("a", 0); ("b", 5) ] "y" 1;
  check_comb "lognot" (m "!a") [ ("a", 0); ("b", 0) ] "y" 1

let test_shifts () =
  let m expr = Printf.sprintf
    "module m (input [7:0] a, input [2:0] b, output [7:0] y); assign y = %s; endmodule" expr
  in
  check_comb "shl const" (m "a << 2") [ ("a", 0b1011); ("b", 0) ] "y" 0b101100;
  check_comb "shr const" (m "a >> 3") [ ("a", 0b10110000); ("b", 0) ] "y" 0b10110;
  check_comb "shl var" (m "a << b") [ ("a", 3); ("b", 5) ] "y" 96;
  check_comb "shr var" (m "a >> b") [ ("a", 0xf0); ("b", 4) ] "y" 0x0f;
  check_comb "shift out" (m "a << b") [ ("a", 255); ("b", 7) ] "y" 0x80

let test_reductions () =
  let m expr = Printf.sprintf
    "module m (input [3:0] a, output y); assign y = %s; endmodule" expr
  in
  check_comb "red and all ones" (m "&a") [ ("a", 0xf) ] "y" 1;
  check_comb "red and not" (m "&a") [ ("a", 0xe) ] "y" 0;
  check_comb "red or zero" (m "|a") [ ("a", 0) ] "y" 0;
  check_comb "red xor parity" (m "^a") [ ("a", 0b1011) ] "y" 1;
  check_comb "red nand" (m "~&a") [ ("a", 0xf) ] "y" 0;
  check_comb "red nor" (m "~|a") [ ("a", 0) ] "y" 1;
  check_comb "red xnor" (m "~^a") [ ("a", 0b1011) ] "y" 0

let test_select_concat () =
  check_comb "variable bit select"
    "module m (input [7:0] a, input [2:0] i, output y); assign y = a[i]; endmodule"
    [ ("a", 0b10000100); ("i", 2) ] "y" 1;
  check_comb "part select"
    "module m (input [7:0] a, output [3:0] y); assign y = a[6:3]; endmodule"
    [ ("a", 0b01011000) ] "y" 0b1011;
  check_comb "concat"
    "module m (input [3:0] a, input [3:0] b, output [7:0] y); assign y = {a, b}; endmodule"
    [ ("a", 0xa); ("b", 0x5) ] "y" 0xa5;
  check_comb "replication"
    "module m (input [1:0] a, output [7:0] y); assign y = {4{a}}; endmodule"
    [ ("a", 0b10) ] "y" 0b10101010;
  check_comb "concat lvalue"
    "module m (input [7:0] a, output [3:0] hi, output [3:0] lo); assign {hi, lo} = a; endmodule"
    [ ("a", 0xc3) ] "hi" 0xc

let test_ternary_case () =
  check_comb "ternary"
    "module m (input s, input [3:0] a, input [3:0] b, output [3:0] y); assign y = s ? a : b; endmodule"
    [ ("s", 1); ("a", 7); ("b", 2) ] "y" 7;
  let case_src =
    {|module m (input [1:0] s, input [3:0] a, output reg [3:0] y);
      always @(*) begin
        case (s)
          2'd0: y = a;
          2'd1: y = a + 4'h1;
          2'd2: y = ~a;
          default: y = 4'h0;
        endcase
      end
    endmodule|}
  in
  check_comb "case arm 0" case_src [ ("s", 0); ("a", 5) ] "y" 5;
  check_comb "case arm 1" case_src [ ("s", 1); ("a", 5) ] "y" 6;
  check_comb "case arm 2" case_src [ ("s", 2); ("a", 5) ] "y" 10;
  check_comb "case default" case_src [ ("s", 3); ("a", 5) ] "y" 0

let test_sequential () =
  let src =
    {|module m (input clk, input rst, input en, input [7:0] d, output reg [7:0] q, output [7:0] next);
      always @(posedge clk or negedge rst) begin
        if (!rst) q <= 8'h0;
        else if (en) q <= d;
      end
      assign next = q + 8'h1;
    endmodule|}
  in
  let sim = sim_of src in
  N.Simulate.set_input sim "rst" 1;
  N.Simulate.set_input sim "en" 1;
  N.Simulate.set_input sim "d" 55;
  N.Simulate.step sim;
  N.Simulate.eval sim;
  Alcotest.(check int) "latched" 55 (N.Simulate.read_output sim "q");
  Alcotest.(check int) "comb from reg" 56 (N.Simulate.read_output sim "next");
  N.Simulate.set_input sim "en" 0;
  N.Simulate.set_input sim "d" 99;
  N.Simulate.step sim;
  N.Simulate.eval sim;
  Alcotest.(check int) "hold when disabled" 55 (N.Simulate.read_output sim "q")

let test_blocking_order () =
  let src =
    {|module m (input [3:0] a, output reg [3:0] y);
      reg [3:0] t;
      always @(*) begin
        t = a + 4'h1;
        y = t + t;
      end
    endmodule|}
  in
  check_comb "blocking chains" src [ ("a", 3) ] "y" 8

let test_nonblocking_swap () =
  let src =
    {|module m (input clk, input rst, output [3:0] ya, output [3:0] yb);
      reg [3:0] a, b;
      always @(posedge clk or negedge rst) begin
        if (!rst) begin
          a <= 4'h3;
          b <= 4'hc;
        end
        else begin
          a <= b;
          b <= a;
        end
      end
      assign ya = a;
      assign yb = b;
    endmodule|}
  in
  let sim = sim_of src in
  N.Simulate.set_input sim "rst" 0;
  N.Simulate.step sim;  (* reset loads 3, c *)
  N.Simulate.set_input sim "rst" 1;
  N.Simulate.step sim;  (* swap *)
  N.Simulate.eval sim;
  Alcotest.(check int) "a took b" 0xc (N.Simulate.read_output sim "ya");
  Alcotest.(check int) "b took a" 0x3 (N.Simulate.read_output sim "yb")

let test_multiple_drivers_rejected () =
  match build "module m (input a, output y); assign y = a; assign y = !a; endmodule" with
  | exception N.Synth.Synthesis_error _ -> ()
  | _ -> Alcotest.fail "expected multiple-driver rejection"

(* tiny substring helper used by the VCD test *)
module Astring_like = struct
  let contains haystack needle =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    n = 0 || go 0
end

(* ---------- random expression property ---------- *)

type rexpr =
  | Rvar of int  (* 0..2 *)
  | Rconst of int
  | Runop of string * rexpr
  | Rbinop of string * rexpr * rexpr
  | Rternary of rexpr * rexpr * rexpr

let width = 8
let mask = (1 lsl width) - 1

let rec rexpr_to_verilog = function
  | Rvar 0 -> "a"
  | Rvar 1 -> "b"
  | Rvar _ -> "c"
  | Rconst c -> Printf.sprintf "8'h%02x" (c land mask)
  | Runop (op, e) -> Printf.sprintf "%s(%s)" op (rexpr_to_verilog e)
  | Rbinop (op, x, y) ->
    Printf.sprintf "(%s %s %s)" (rexpr_to_verilog x) op (rexpr_to_verilog y)
  | Rternary (c, x, y) ->
    Printf.sprintf "((%s) ? (%s) : (%s))" (rexpr_to_verilog c)
      (rexpr_to_verilog x) (rexpr_to_verilog y)

(* reference interpreter mirroring Verilog's unsigned two-pass width
   semantics: first the self-determined width of every operand, then
   evaluation at the context width (operands of arithmetic/bitwise
   operators extend to the widest width involved, including the
   context; comparisons, logical operators and reductions are
   self-determined and one bit wide) *)
let rec rwidth = function
  | Rvar _ | Rconst _ -> width
  | Runop (("~" | "-"), e) -> rwidth e
  | Runop (_, _) -> 1
  | Rbinop (("+" | "-" | "*" | "&" | "|" | "^"), x, y) -> max (rwidth x) (rwidth y)
  | Rbinop (_, _, _) -> 1
  | Rternary (_, x, y) -> max (rwidth x) (rwidth y)

let rec reval_at env ctx e : int =
  let m = (1 lsl ctx) - 1 in
  match e with
  | Rvar i -> env.(i) land m
  | Rconst c -> c land m
  | Runop (op, x) -> (
    match op with
    | "~" -> lnot (reval_at env ctx x) land m
    | "-" -> -reval_at env ctx x land m
    | "!" -> (if reval_at env (rwidth x) x = 0 then 1 else 0) land m
    | "&" ->
      let w = rwidth x in
      (if reval_at env w x = (1 lsl w) - 1 then 1 else 0) land m
    | "|" -> (if reval_at env (rwidth x) x <> 0 then 1 else 0) land m
    | "^" ->
      let rec parity v acc = if v = 0 then acc else parity (v lsr 1) (acc lxor (v land 1)) in
      parity (reval_at env (rwidth x) x) 0 land m
    | _ -> assert false)
  | Rbinop (op, x, y) -> (
    match op with
    | "+" | "-" | "*" | "&" | "|" | "^" ->
      let octx = max ctx (max (rwidth x) (rwidth y)) in
      let a = reval_at env octx x and b = reval_at env octx y in
      let om = (1 lsl octx) - 1 in
      let v =
        match op with
        | "+" -> (a + b) land om
        | "-" -> (a - b) land om
        | "*" -> (a * b) land om
        | "&" -> a land b
        | "|" -> a lor b
        | _ -> a lxor b
      in
      v land m
    | "&&" | "||" ->
      let a = reval_at env (rwidth x) x and b = reval_at env (rwidth y) y in
      (match op with
       | "&&" -> if a <> 0 && b <> 0 then 1 else 0
       | _ -> if a <> 0 || b <> 0 then 1 else 0)
      land m
    | _ ->
      let w = max (rwidth x) (rwidth y) in
      let a = reval_at env w x and b = reval_at env w y in
      (match op with
       | "==" -> if a = b then 1 else 0
       | "!=" -> if a <> b then 1 else 0
       | "<" -> if a < b then 1 else 0
       | "<=" -> if a <= b then 1 else 0
       | ">" -> if a > b then 1 else 0
       | ">=" -> if a >= b then 1 else 0
       | _ -> assert false)
      land m)
  | Rternary (c, x, y) ->
    let cv = reval_at env (rwidth c) c in
    let octx = max ctx (max (rwidth x) (rwidth y)) in
    (if cv <> 0 then reval_at env octx x else reval_at env octx y) land m

let reval env e = reval_at env width e

let gen_rexpr : rexpr QCheck.Gen.t =
  let open QCheck.Gen in
  let unops = [ "~"; "!"; "-"; "&"; "|"; "^" ] in
  let binops = [ "+"; "-"; "*"; "&"; "|"; "^"; "&&"; "||"; "=="; "!="; "<"; "<="; ">"; ">=" ] in
  fix
    (fun self depth ->
      if depth = 0 then
        oneof [ map (fun i -> Rvar (abs i mod 3)) int; map (fun c -> Rconst (c land mask)) int ]
      else
        frequency
          [ (2, oneof [ map (fun i -> Rvar (abs i mod 3)) int; map (fun c -> Rconst (c land mask)) int ]);
            (4, map3 (fun op x y -> Rbinop (op, x, y)) (oneofl binops) (self (depth - 1)) (self (depth - 1)));
            (2, map2 (fun op e -> Runop (op, e)) (oneofl unops) (self (depth - 1)));
            (1, map3 (fun c x y -> Rternary (c, x, y)) (self (depth - 1)) (self (depth - 1)) (self (depth - 1))) ])
    4

let synth_matches_interpreter =
  QCheck.Test.make ~count:120 ~name:"synthesized expression = interpreter"
    (QCheck.make gen_rexpr ~print:rexpr_to_verilog)
    (fun e ->
      let src =
        Printf.sprintf
          "module m (input [7:0] a, input [7:0] b, input [7:0] c, output [7:0] y); assign y = %s; endmodule"
          (rexpr_to_verilog e)
      in
      let sim = sim_of src in
      let cases = [ (0, 0, 0); (1, 2, 3); (255, 255, 255); (170, 85, 204); (7, 200, 31) ] in
      List.for_all
        (fun (a, b, c) ->
          N.Simulate.set_input sim "a" a;
          N.Simulate.set_input sim "b" b;
          N.Simulate.set_input sim "c" c;
          N.Simulate.eval sim;
          N.Simulate.read_output sim "y" = reval [| a; b; c |] e)
        cases)

(* a port wider than an int prints in hex from its bits, and the int
   accessors refuse it rather than wrap its value *)
let test_wide_ports () =
  let sim =
    sim_of
      {|module w (input [69:0] a, output [69:0] y, output [69:0] ones,
                  output [61:0] top);
        assign y = {1'b1, 34'd0, 34'd0, 1'b1};
        assign ones = {70{1'b1}};
        assign top = {62{1'b1}};
      endmodule|}
  in
  N.Simulate.eval sim;
  let show name = N.Simulate.string_of_bits (N.Simulate.read_output_bits sim name) in
  Alcotest.(check string) "2^69 + 1" "70'h200000000000000001" (show "y");
  Alcotest.(check string) "all ones" "70'h3fffffffffffffffff" (show "ones");
  Alcotest.(check string) "62 bits stay decimal" (string_of_int max_int) (show "top");
  Alcotest.(check int) "62 bits read as an int" max_int
    (N.Simulate.read_output sim "top");
  let refused f =
    match f () with
    | exception Invalid_argument msg -> msg
    | _ -> Alcotest.fail "a 70-bit port was read or driven as an int"
  in
  Alcotest.(check string) "read_output refuses"
    "output y is 70 bits wide; an int holds at most 62"
    (refused (fun () -> ignore (N.Simulate.read_output sim "y")));
  Alcotest.(check string) "set_input refuses"
    "input a is 70 bits wide; an int holds at most 62"
    (refused (fun () -> N.Simulate.set_input sim "a" 1))

let test_vcd_dump () =
  let src =
    {|module m (input clk, input [3:0] d, output reg [3:0] q);
      always @(posedge clk) q <= d;
    endmodule|}
  in
  let sim = sim_of src in
  let vcd = N.Vcd.create ~module_name:"m" sim in
  for i = 0 to 5 do
    N.Simulate.set_input sim "d" i;
    N.Simulate.step sim;
    N.Simulate.eval sim;
    N.Vcd.sample vcd
  done;
  let text = N.Vcd.contents vcd in
  Alcotest.(check bool) "has definitions" true
    (String.length text > 0
     && Astring_like.contains text "$enddefinitions"
     && Astring_like.contains text "$var wire 4"
     && Astring_like.contains text "$dumpvars"
     && Astring_like.contains text "#5")

let tests =
  [ Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "comparisons and logic" `Quick test_compare_logic;
    Alcotest.test_case "shifts" `Quick test_shifts;
    Alcotest.test_case "reductions" `Quick test_reductions;
    Alcotest.test_case "selects and concat" `Quick test_select_concat;
    Alcotest.test_case "ternary and case" `Quick test_ternary_case;
    Alcotest.test_case "sequential" `Quick test_sequential;
    Alcotest.test_case "blocking order" `Quick test_blocking_order;
    Alcotest.test_case "nonblocking swap" `Quick test_nonblocking_swap;
    Alcotest.test_case "multiple drivers rejected" `Quick test_multiple_drivers_rejected;
    Alcotest.test_case "vcd dump" `Quick test_vcd_dump;
    Alcotest.test_case "wide ports" `Quick test_wide_ports;
    QCheck_alcotest.to_alcotest synth_matches_interpreter ]
