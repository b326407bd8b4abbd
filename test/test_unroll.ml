(* Time-frame expansion, the sequential attack, and the approximate
   attack baseline. *)

module V = Alice_verilog
module N = Alice_netlist
module Sec = Alice_security

let build src = N.Synth.synthesize (V.Elaborate.elaborate (V.Parser.parse src))

let accum_src =
  {|module m (input clk, input en, input [3:0] d, output reg [3:0] q);
    always @(posedge clk) begin
      if (en) q <= q + d;
    end
  endmodule|}

let test_unroll_matches_stepping () =
  let c = build accum_src in
  let cycles = 5 in
  let u = N.Unroll.unroll ~cycles c in
  (* sequential reference *)
  let sim = N.Simulate.create c in
  let usim = N.Simulate.create u in
  let st = Random.State.make [| 5 |] in
  let stimuli =
    Array.init cycles (fun _ -> (Random.State.bool st, Random.State.int st 16))
  in
  let expected = Array.make cycles 0 in
  Array.iteri
    (fun t (en, d) ->
      N.Simulate.set_input sim "en" (if en then 1 else 0);
      N.Simulate.set_input sim "d" d;
      N.Simulate.eval sim;
      expected.(t) <- N.Simulate.read_output sim "q";
      N.Simulate.step sim)
    stimuli;
  (* drive the unrolled copy all at once *)
  Array.iteri
    (fun t (en, d) ->
      N.Simulate.set_input usim (N.Unroll.frame_name "en" t) (if en then 1 else 0);
      N.Simulate.set_input usim (N.Unroll.frame_name "d" t) d;
      N.Simulate.set_input usim (N.Unroll.frame_name "clk" t) 0)
    stimuli;
  N.Simulate.eval usim;
  Array.iteri
    (fun t _ ->
      Alcotest.(check int)
        (Printf.sprintf "q at cycle %d" t)
        expected.(t)
        (N.Simulate.read_output usim (N.Unroll.frame_name "q" t)))
    stimuli

let test_unroll_is_combinational () =
  let c = build accum_src in
  let u = N.Unroll.unroll ~cycles:3 c in
  Alcotest.(check int) "no registers left" 0 (N.Circuit.dff_count u);
  Alcotest.(check int) "inputs replicated" (3 * 3)
    (List.length u.N.Circuit.inputs);
  Alcotest.(check int) "outputs replicated" 3 (List.length u.N.Circuit.outputs);
  (match N.Unroll.unroll ~cycles:0 c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cycles=0 must be rejected")

let test_approx_attack () =
  let c =
    build
      {|module m (input [5:0] a, output [3:0] y);
        assign y[0] = a[0] ^ (a[5] & a[3]);
        assign y[1] = (a[1] | a[2]) ^ a[4];
        assign y[2] = (a[0] & a[1]) | (a[2] & ~a[3]);
        assign y[3] = ^a;
      endmodule|}
  in
  let mapped, _ = N.Lutmap.map ~k:4 c in
  let locked = Sec.Locked.of_mapped mapped in
  let oracle = Sec.Locked.make_oracle locked in
  let o = Sec.Approx_attack.attack locked ~oracle in
  Alcotest.(check bool) "some agreement reached" true (o.Sec.Approx_attack.best_agreement > 0.3);
  Alcotest.(check bool) "flips accounted" true (o.Sec.Approx_attack.flips_tried > 0);
  (* the correct key must score a perfect agreement: sanity of the scorer
     via a 1-flip budget starting... instead check monotone bound *)
  Alcotest.(check bool) "agreement bounded" true (o.Sec.Approx_attack.best_agreement <= 1.0)

let test_approx_attack_weaker_than_sat () =
  (* on a circuit the exact attack solves, hill climbing typically stays
     approximate: assert only that both report sane, comparable data *)
  let c = build "module m (input [3:0] a, output [3:0] y); assign y = a + 4'h5; endmodule" in
  let mapped, _ = N.Lutmap.map ~k:4 c in
  let locked = Sec.Locked.of_mapped mapped in
  let oracle = Sec.Locked.make_oracle locked in
  let exact = Sec.Sat_attack.attack locked ~oracle in
  let approx = Sec.Approx_attack.attack locked ~oracle in
  Alcotest.(check bool) "exact converges" true
    (exact.Sec.Sat_attack.status = Sec.Sat_attack.Converged);
  Alcotest.(check bool) "approx reports agreement" true
    (approx.Sec.Approx_attack.best_agreement > 0.0)

let test_seq_attack_no_scan () =
  (* a small locked FSM attacked without scan: distinguishing sequences
     from reset must recover a key correct over the bounded window *)
  let c =
    build
      {|module m (input clk, input [1:0] d, output [1:0] y);
        reg [1:0] s;
        always @(posedge clk) s <= {s[0] ^ d[1], d[0] & s[1]};
        assign y = s ^ d;
      endmodule|}
  in
  let mapped, _ = N.Lutmap.map ~k:4 c in
  let locked = Sec.Locked.of_mapped mapped in
  let cycles = 4 in
  let o =
    Sec.Seq_attack.attack
      ~budget:{ Sec.Sat_attack.max_iterations = 200; max_seconds = 30.0;
                solver_conflicts = None }
      locked ~cycles
  in
  Alcotest.(check bool) "sequential attack converges" true
    (o.Sec.Sat_attack.status = Sec.Sat_attack.Converged);
  (match o.Sec.Sat_attack.key with
  | None -> Alcotest.fail "no key"
  | Some key ->
    Alcotest.(check bool) "key correct over the window" true
      (Sec.Seq_attack.key_correct_bounded locked ~cycles key))

let test_lock_unrolled_shares_keys () =
  let c = build accum_src in
  let mapped, _ = N.Lutmap.map ~k:4 c in
  let locked = Sec.Locked.of_mapped mapped in
  let ul = Sec.Seq_attack.lock_unrolled locked ~cycles:3 in
  Alcotest.(check int) "key bits unchanged" locked.Sec.Locked.key_bits
    ul.Sec.Locked.key_bits;
  Alcotest.(check int) "offsets replicated per frame"
    (3 * List.length locked.Sec.Locked.offsets)
    (List.length ul.Sec.Locked.offsets);
  Alcotest.(check int) "combinational" 0 (N.Circuit.dff_count ul.Sec.Locked.circuit);
  (* the correct key drives the unrolled circuit correctly *)
  Alcotest.(check bool) "correct key valid over window" true
    (Sec.Seq_attack.key_correct_bounded locked ~cycles:3
       locked.Sec.Locked.correct_key)

let tests =
  [ Alcotest.test_case "unroll matches stepping" `Quick test_unroll_matches_stepping;
    Alcotest.test_case "unroll is combinational" `Quick test_unroll_is_combinational;
    Alcotest.test_case "approx attack" `Quick test_approx_attack;
    Alcotest.test_case "approx vs sat" `Quick test_approx_attack_weaker_than_sat;
    Alcotest.test_case "no-scan sequential attack" `Quick test_seq_attack_no_scan;
    Alcotest.test_case "lock unrolled shares keys" `Quick test_lock_unrolled_shares_keys ]
