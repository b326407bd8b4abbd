(* eFPGA locking and the oracle-guided SAT attack. *)

module A = Alice
module B = Alice_benchmarks.Suite
module V = Alice_verilog
module N = Alice_netlist
module Sec = Alice_security

let mapped_of src =
  let c = N.Synth.synthesize (V.Elaborate.elaborate (V.Parser.parse src)) in
  N.Lutmap.map ~k:4 c

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
  (* the key is the LUT tables in gate order: the last bit of [y]'s *)
  let rec last_bit off = function
    | [] -> Alcotest.fail "no LUT drives y"
    | (g : N.Circuit.gate) :: gs -> (
      match g.N.Circuit.kind with
      | N.Circuit.Lut table when g.N.Circuit.output = y ->
        off + Array.length table - 1
      | N.Circuit.Lut table -> last_bit (off + Array.length table) gs
      | _ -> last_bit off gs)
  in
  let bit = last_bit 0 (N.Circuit.gates_in_order c) in
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
      let mapped = N.Lutmap.map ~k:4 circuit in
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

(* Differential: the attack, whose replays leave out the LUT rows their
   pins satisfy, against [Attack_oracle]'s whole replay copies. A left-out
   clause holds a literal its pin makes true before any search, so the
   two must agree query for query: the same DIPs, the same session
   counters after every query (conflicts, decisions, propagations,
   learnt clauses kept, reused and dropped, reductions) and the same
   outcome and key. *)
let check_same_attack label ~budget (l : Sec.Locked.t) =
  let run attack =
    let dips = ref [] and queries = ref [] in
    let oracle = Sec.Locked.make_oracle l in
    let o =
      attack
        ~observe:(fun st -> queries := st :: !queries)
        ~oracle:(fun x ->
          dips := Array.copy x :: !dips;
          oracle x)
    in
    (List.rev !dips, List.rev !queries, { o with Sec.Sat_attack.seconds = 0.0 })
  in
  let want_dips, want_queries, want =
    run (fun ~observe ~oracle -> Attack_oracle.attack ~budget ~observe l ~oracle)
  and got_dips, got_queries, got =
    run (fun ~observe ~oracle -> Sec.Sat_attack.attack ~budget ~observe l ~oracle)
  in
  let conflicts =
    List.map (fun st -> st.Alice_sat.Solver.Incremental.conflicts)
  in
  Alcotest.(check bool) (label ^ ": DIP sequence") true (want_dips = got_dips);
  Alcotest.(check (list int)) (label ^ ": conflicts after each query")
    (conflicts want_queries) (conflicts got_queries);
  Alcotest.(check bool) (label ^ ": session counters after each query") true
    (want_queries = got_queries);
  Alcotest.(check bool) (label ^ ": outcome and key") true (want = got)

(* every valid candidate of four attack_measured designs under both
   configurations (83 distinct netlists), at the workload's two attack
   budgets *)
let test_replay_candidates () =
  let seen = Hashtbl.create 128 in
  List.iter
    (fun (name, cfg) ->
      let b = Option.get (B.find name) in
      let config = match cfg with `C1 -> B.config1 b | `C2 -> B.config2 b in
      let flow =
        A.Flow.run_request
          (A.Flow.request
             ~config:{ config with Alice_config.Flow_config.jobs = 1 }
             (A.Flow.Text { text = b.B.source; file = None }))
      in
      List.iter
        (fun (e : A.Selection.efpga_impl) ->
          let mapped = e.A.Selection.mapped in
          let digest =
            Digest.string (Marshal.to_string mapped [ Marshal.No_sharing ])
          in
          if not (Hashtbl.mem seen digest) then begin
            Hashtbl.add seen digest ();
            let l = Sec.Locked.of_mapped mapped in
            List.iter
              (fun (iterations, conflicts) ->
                check_same_attack
                  (Printf.sprintf "%s %s at %d/%d" name
                     e.A.Selection.cluster.A.Clustering.key conflicts
                     iterations)
                  ~budget:{ Sec.Sat_attack.max_iterations = iterations;
                            solver_conflicts = Some conflicts }
                  l)
              [ (4, 500); (8, 1000) ]
          end)
        flow.A.Flow.selection.A.Selection.valid)
    [ ("GCD", `C1); ("GCD", `C2); ("SASC", `C1); ("SASC", `C2);
      ("USB_PHY", `C1); ("USB_PHY", `C2); ("FIR", `C1); ("FIR", `C2) ];
  Alcotest.(check int) "distinct netlists" 83 (Hashtbl.length seen)

(* A seeded random lock with four more outputs: a LUT with no input, a
   LUT reading only it (added before it, as the mapper orders a reader
   before its driver), a LUT reading it and a core input, and a LUT
   reading its complement through a Tseitin gate. Once their key bits
   are fixed at level 0, loading a replay fixes the first, second and
   fourth outputs before their pins, so their rows must stay; the third
   reads a free input, and its pinned rows go. *)
let random_lock seed =
  let st = Random.State.make [| 0xD1F; seed |] in
  let mapped =
    N.Lutmap.map ~k:4 (Test_lutmap.random_circuit ~size:6 seed)
  in
  let lut inputs =
    N.Circuit.Lut
      (Array.init (1 lsl Array.length inputs) (fun _ -> Random.State.bool st))
  in
  let c0 = N.Circuit.fresh_net mapped in
  let c1 = N.Circuit.add_gate mapped (lut [| c0 |]) [| c0 |] in
  N.Circuit.add_gate_with_output mapped (lut [||]) [||] ~output:c0;
  let a0 = (snd (List.hd mapped.N.Circuit.inputs)).(0) in
  let c2 = N.Circuit.add_gate mapped (lut [| c0; a0 |]) [| c0; a0 |] in
  let n0 = N.Circuit.add_gate mapped N.Circuit.Not [| c0 |] in
  let c3 = N.Circuit.add_gate mapped (lut [| n0 |]) [| n0 |] in
  N.Circuit.set_output mapped "k" [| c0; c1; c2; c3 |];
  Sec.Locked.of_mapped mapped

let test_replay_random_locks () =
  List.iter
    (fun seed ->
      let l = random_lock seed in
      let n = Array.length (Sec.Locked.input_nets l) in
      check_same_attack (Printf.sprintf "random lock %d" seed)
        ~budget:{ Sec.Sat_attack.max_iterations = (1 lsl n) + 1;
                  solver_conflicts = None }
        l)
    (List.init 24 Fun.id)

(* The solver loads a replay copy and its pins at level 0 without
   propagating: each clause, in order, is skipped when a literal is
   true, loses its false literals, and enqueues its last one. This
   replays that on a copy and returns its clauses, the literals it
   enqueues in order and the assignment it ends with. *)
let load_copy ~encode ~fixed (l : Sec.Locked.t) x y =
  let module Cnf = Alice_sat.Cnf in
  let f = Cnf.create () in
  let key_vars = Cnf.fresh_vars f l.Sec.Locked.key_bits in
  let map = encode f ~key_vars in
  let pin nets bits =
    Array.iteri
      (fun i n -> Cnf.add_unit f (if bits.(i) then map.(n) else -map.(n)))
      nets
  in
  pin (Sec.Locked.input_nets l) x;
  pin (Sec.Locked.output_nets l) y;
  let assign = Hashtbl.create 256 in
  Array.iteri
    (fun i v -> Option.iter (Hashtbl.replace assign v) fixed.(i))
    key_vars;
  let value lit =
    Option.map (fun b -> if lit > 0 then b else not b)
      (Hashtbl.find_opt assign (abs lit))
  in
  let clauses = ref [] and trail = ref [] in
  Cnf.iter_from f 0 (fun c ->
      clauses := Array.to_list c :: !clauses;
      if not (Array.exists (fun lit -> value lit = Some true) c) then
        match
          List.sort_uniq compare
            (List.filter (fun lit -> value lit = None) (Array.to_list c))
        with
        | [ lit ] ->
          Hashtbl.replace assign (abs lit) (lit > 0);
          trail := lit :: !trail
        | [] -> Alcotest.fail "a replay copy contradicts its pins"
        | _ -> ());
  (List.rev !clauses, List.rev !trail, value)

(* A pruned replay keeps the whole copy's clauses in order, leaves out
   only clauses its pins satisfy, and loads to the same trail, whatever
   key bits level 0 has fixed (to the correct key's values, as any
   level-0 fact of the attack is). A row left out that loading would
   have made unit, as in a LUT whose every net loading fixes, moves a
   literal of the trail. *)
let test_replay_load_trail () =
  List.iter
    (fun seed ->
      let l = random_lock seed in
      let st = Random.State.make [| 0x10AD; seed |] in
      let x =
        Array.map (fun _ -> Random.State.bool st) (Sec.Locked.input_nets l)
      in
      let y = Sec.Locked.make_oracle l x in
      let fixed =
        Array.map
          (fun b -> if Random.State.int st 4 > 0 then Some b else None)
          l.Sec.Locked.correct_key
      in
      let pins = Array.make l.Sec.Locked.circuit.N.Circuit.next_net None in
      Array.iteri (fun i n -> pins.(n) <- Some x.(i)) (Sec.Locked.input_nets l);
      Array.iteri (fun i n -> pins.(n) <- Some y.(i)) (Sec.Locked.output_nets l);
      let whole, want_trail, _ =
        load_copy ~fixed l x y ~encode:(fun f ~key_vars ->
            Attack_oracle.encode_locked f l ~key_vars ~share:(fun _ -> None))
      and kept, trail, value =
        load_copy ~fixed l x y ~encode:(fun f ~key_vars ->
            Sec.Locked.encode_locked ~pins f l ~key_vars ~share:(fun _ -> None))
      in
      let label what = Printf.sprintf "seed %d: %s" seed what in
      Alcotest.(check (list int)) (label "trail") want_trail trail;
      let rec walk whole kept =
        match (whole, kept) with
        | w :: ws, k :: ks when w = k -> walk ws ks
        | w :: ws, _ ->
          Alcotest.(check bool) (label "a left-out clause is satisfied") true
            (List.exists (fun lit -> value lit = Some true) w);
          walk ws kept
        | [], [] -> ()
        | [], _ :: _ -> Alcotest.fail (label "a kept clause is not in the whole copy")
      in
      walk whole kept)
    (List.init 60 Fun.id)

let tests =
  [ Alcotest.test_case "lock roundtrip" `Quick test_lock_roundtrip;
    Alcotest.test_case "scan view" `Quick test_scan_view;
    Alcotest.test_case "attack recovers key" `Quick test_attack_recovers;
    Alcotest.test_case "attack budget" `Quick test_attack_budget;
    Alcotest.test_case "metrics report" `Quick test_metrics_report;
    Alcotest.test_case "sequential attack" `Quick test_attack_sequential;
    Alcotest.test_case "attack property: 30 random locks" `Quick
      test_attack_property;
    Alcotest.test_case "key check is exact" `Quick test_key_check_exact;
    Alcotest.test_case "pruned replays match whole ones: candidates" `Quick
      test_replay_candidates;
    Alcotest.test_case "pruned replays match whole ones: random locks" `Quick
      test_replay_random_locks;
    Alcotest.test_case "pruned replays load to the same trail" `Quick
      test_replay_load_trail ]
