(* eFPGA locking and the oracle-guided SAT attack. *)

module V = Alice_verilog
module N = Alice_netlist
module Sec = Alice_security

let mapped_of src =
  let c = N.Synth.synthesize (V.Elaborate.elaborate (V.Parser.parse src)) in
  fst (N.Lutmap.map ~k:4 c)

let small_comb =
  {|module m (input [5:0] a, output [3:0] y);
    assign y[0] = a[0] ^ (a[5] & a[3]);
    assign y[1] = (a[1] | a[2]) ^ a[4];
    assign y[2] = (a[0] & a[1]) | (a[2] & ~a[3]);
    assign y[3] = ^a;
  endmodule|}

let test_lock_roundtrip () =
  let mapped = mapped_of small_comb in
  let locked = Sec.Locked.of_mapped mapped in
  Alcotest.(check bool) "key bits counted" true (locked.Sec.Locked.key_bits > 0);
  (* applying the correct key reproduces the circuit *)
  let keyed = Sec.Locked.apply_key locked locked.Sec.Locked.correct_key in
  Alcotest.(check bool) "correct key is functionally correct" true
    (Sec.Locked.key_is_correct locked locked.Sec.Locked.correct_key);
  Alcotest.(check int) "same gate count" (N.Circuit.gate_count mapped)
    (N.Circuit.gate_count keyed);
  (* the complemented key inverts every LUT, including the output cones *)
  let wrong = Array.map not locked.Sec.Locked.correct_key in
  Alcotest.(check bool) "complemented key detected" false
    (Sec.Locked.key_is_correct locked wrong)

let test_scan_view () =
  let mapped =
    mapped_of
      {|module m (input clk, input [3:0] d, output reg [3:0] q);
        always @(posedge clk) q <= q + d;
      endmodule|}
  in
  let locked = Sec.Locked.of_mapped mapped in
  (* scan view: inputs = PIs + 4 Q bits, outputs = POs + 4 D bits *)
  Alcotest.(check int) "scan inputs" (1 + 4 + 4)
    (Array.length (Sec.Locked.input_nets locked));
  Alcotest.(check int) "scan outputs" (4 + 4)
    (Array.length (Sec.Locked.output_nets locked))

let test_attack_recovers () =
  let mapped = mapped_of small_comb in
  let locked = Sec.Locked.of_mapped mapped in
  let oracle = Sec.Locked.make_oracle locked in
  let outcome = Sec.Sat_attack.attack locked ~oracle in
  Alcotest.(check bool) "attack converges" true
    (outcome.Sec.Sat_attack.status = Sec.Sat_attack.Converged);
  Alcotest.(check bool) "needs at least one DIP" true
    (outcome.Sec.Sat_attack.iterations >= 1);
  match outcome.Sec.Sat_attack.key with
  | None -> Alcotest.fail "no key extracted"
  | Some key ->
    Alcotest.(check bool) "recovered key functionally correct" true
      (Sec.Locked.key_is_correct locked key)

let test_attack_budget () =
  let mapped = mapped_of small_comb in
  let locked = Sec.Locked.of_mapped mapped in
  let oracle = Sec.Locked.make_oracle locked in
  let outcome =
    Sec.Sat_attack.attack
      ~budget:{ Sec.Sat_attack.max_iterations = 1; solver_conflicts = None }
      locked ~oracle
  in
  Alcotest.(check bool) "budget exhausts" false
    (outcome.Sec.Sat_attack.status = Sec.Sat_attack.Converged)

(* lock a mapped circuit, attack it under the default budget and check
   the recovered key against the original function *)
let attack_and_verify mapped =
  let locked = Sec.Locked.of_mapped mapped in
  let outcome = Sec.Sat_attack.attack locked ~oracle:(Sec.Locked.make_oracle locked) in
  ( locked, outcome,
    Option.map (Sec.Locked.key_is_correct locked) outcome.Sec.Sat_attack.key )

let test_metrics_report () =
  let locked, outcome, key_correct = attack_and_verify (mapped_of small_comb) in
  Alcotest.(check bool) "attack succeeded" true
    (outcome.Sec.Sat_attack.status = Sec.Sat_attack.Converged);
  Alcotest.(check (option bool)) "key verified" (Some true) key_correct;
  Alcotest.(check bool) "key bits positive" true (locked.Sec.Locked.key_bits > 0)

let test_attack_sequential () =
  (* scan-exposed sequential circuit: attack the combinational core *)
  let mapped =
    mapped_of
      {|module m (input clk, input rst, input [2:0] d, output reg [2:0] q);
        always @(posedge clk or negedge rst) begin
          if (!rst) q <= 3'h0;
          else q <= (q << 1) ^ d;
        end
      endmodule|}
  in
  let _, outcome, key_correct = attack_and_verify mapped in
  Alcotest.(check bool) "sequential attack converges" true
    (outcome.Sec.Sat_attack.status = Sec.Sat_attack.Converged);
  Alcotest.(check (option bool)) "sequential key correct" (Some true) key_correct

(* A wrong key that differs from the correct one on one scan input out
   of 2^20: the all-ones row of the LUT driving [y = &a] is read only
   when every bit of [a] is 1, which 512 random vectors almost surely
   miss. The key check must still refuse it. *)
let test_key_check_exact () =
  let locked =
    Sec.Locked.of_mapped
      (mapped_of "module wide (input [19:0] a, output y); assign y = &a; endmodule")
  in
  let c = locked.Sec.Locked.circuit in
  Alcotest.(check (list int)) "LUTs, key bits, scan inputs" [ 7; 100; 20 ]
    [ N.Circuit.lut_count c; locked.Sec.Locked.key_bits;
      Array.length (Sec.Locked.input_nets locked) ];
  let y = (List.assoc "y" c.N.Circuit.outputs).(0) in
  let lut =
    List.find (fun (g : N.Circuit.gate) -> g.N.Circuit.output = y)
      (N.Circuit.gates_in_order c)
  in
  let bit =
    List.assoc y locked.Sec.Locked.offsets
    + (1 lsl Array.length lut.N.Circuit.inputs) - 1
  in
  let key = Array.copy locked.Sec.Locked.correct_key in
  key.(bit) <- not key.(bit);
  Alcotest.(check bool) "correct key accepted" true
    (Sec.Locked.key_is_correct locked locked.Sec.Locked.correct_key);
  Alcotest.(check bool) "key wrong on one vector refused" false
    (Sec.Locked.key_is_correct locked key)

(* Seeded property: on a lock with n scan inputs, an attack bounded
   only by 2^n + 1 iterations converges within 2^n DIPs (no input is
   ever distinguishing twice) and recovers a key that is functionally
   correct on every input. Small circuits (6 to 23 gates) keep the 30
   unbounded attacks well under a second. *)
let test_attack_property () =
  List.iter
    (fun seed ->
      let circuit = Test_lutmap.random_circuit ~size:6 seed in
      let mapped = fst (N.Lutmap.map ~k:4 circuit) in
      let locked = Sec.Locked.of_mapped mapped in
      let n = Array.length (Sec.Locked.input_nets locked) in
      Alcotest.(check bool) "at most 8 scan inputs" true (n <= 8);
      let outcome =
        Sec.Sat_attack.attack
          ~budget:{ Sec.Sat_attack.max_iterations = (1 lsl n) + 1;
                    solver_conflicts = None }
          locked ~oracle:(Sec.Locked.make_oracle locked)
      in
      let label what = Printf.sprintf "seed %d: %s" seed what in
      Alcotest.(check string) (label "converges") "converged"
        (Sec.Sat_attack.status_to_string outcome.Sec.Sat_attack.status);
      Alcotest.(check bool) (label "at most 2^n DIPs") true
        (outcome.Sec.Sat_attack.iterations <= 1 lsl n);
      match outcome.Sec.Sat_attack.key with
      | None -> Alcotest.fail (label "no key extracted")
      | Some key ->
        Alcotest.(check bool) (label "recovered key correct") true
          (Sec.Locked.key_is_correct locked key))
    (List.init 30 Fun.id)

let tests =
  [ Alcotest.test_case "lock roundtrip" `Quick test_lock_roundtrip;
    Alcotest.test_case "scan view" `Quick test_scan_view;
    Alcotest.test_case "attack recovers key" `Quick test_attack_recovers;
    Alcotest.test_case "attack budget" `Quick test_attack_budget;
    Alcotest.test_case "metrics report" `Quick test_metrics_report;
    Alcotest.test_case "sequential attack" `Quick test_attack_sequential;
    Alcotest.test_case "attack property: 30 random locks" `Quick
      test_attack_property;
    Alcotest.test_case "key check is exact" `Quick test_key_check_exact ]
