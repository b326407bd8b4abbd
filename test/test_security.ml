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
    (Sec.Metrics.key_is_correct locked locked.Sec.Locked.correct_key);
  Alcotest.(check int) "same gate count" (N.Circuit.gate_count mapped)
    (N.Circuit.gate_count keyed);
  (* the complemented key inverts every LUT, including the output cones *)
  let wrong = Array.map not locked.Sec.Locked.correct_key in
  Alcotest.(check bool) "complemented key detected" false
    (Sec.Metrics.key_is_correct locked wrong)

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
  Alcotest.(check bool) "attack converges" true outcome.Sec.Sat_attack.success;
  Alcotest.(check bool) "needs at least one DIP" true
    (outcome.Sec.Sat_attack.iterations >= 1);
  match outcome.Sec.Sat_attack.key with
  | None -> Alcotest.fail "no key extracted"
  | Some key ->
    Alcotest.(check bool) "recovered key functionally correct" true
      (Sec.Metrics.key_is_correct locked key)

let test_attack_budget () =
  let mapped = mapped_of small_comb in
  let locked = Sec.Locked.of_mapped mapped in
  let oracle = Sec.Locked.make_oracle locked in
  let outcome =
    Sec.Sat_attack.attack
      ~budget:{ Sec.Sat_attack.max_iterations = 1; max_seconds = 30.0;
                solver_conflicts = None }
      locked ~oracle
  in
  Alcotest.(check bool) "budget exhausts" false outcome.Sec.Sat_attack.success

let test_metrics_report () =
  let mapped = mapped_of small_comb in
  let report = Sec.Metrics.evaluate mapped in
  Alcotest.(check bool) "attack succeeded" true report.Sec.Metrics.attack.Sec.Sat_attack.success;
  Alcotest.(check (option bool)) "key verified" (Some true) report.Sec.Metrics.key_correct;
  Alcotest.(check bool) "key bits positive" true (report.Sec.Metrics.key_bits > 0)

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
  let report = Sec.Metrics.evaluate mapped in
  Alcotest.(check bool) "sequential attack converges" true
    report.Sec.Metrics.attack.Sec.Sat_attack.success;
  Alcotest.(check (option bool)) "sequential key correct" (Some true)
    report.Sec.Metrics.key_correct

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
                    max_seconds = infinity; solver_conflicts = None }
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
          (Sec.Metrics.key_is_correct locked key))
    (List.init 30 Fun.id)

let tests =
  [ Alcotest.test_case "lock roundtrip" `Quick test_lock_roundtrip;
    Alcotest.test_case "scan view" `Quick test_scan_view;
    Alcotest.test_case "attack recovers key" `Quick test_attack_recovers;
    Alcotest.test_case "attack budget" `Quick test_attack_budget;
    Alcotest.test_case "metrics report" `Quick test_metrics_report;
    Alcotest.test_case "sequential attack" `Quick test_attack_sequential;
    Alcotest.test_case "attack property: 30 random locks" `Quick
      test_attack_property ]
