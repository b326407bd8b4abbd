(* Security sweep: make Eq. 1's premise measurable.

     dune exec examples/security_sweep.exe

   The paper scores eFPGA candidates by fabric utilization, citing the
   SAT-attack studies [3,4] for the claim that poorly utilized fabrics
   are weaker. Here we lock redaction candidates of different sizes and
   run the actual oracle-guided SAT attack on each, reporting key length,
   distinguishing inputs used, and attack time. *)

module A = Alice
module B = Alice_benchmarks.Suite
module N = Alice_netlist
module V = Alice_verilog
module Sec = Alice_security

(* candidates: small combinational modules from the benchmarks *)
let candidates =
  [ ("GCD/is_zero", "GCD", "is_zero");
    ("GCD/cmp_eq", "GCD", "cmp_eq");
    ("GCD/cmp_lt", "GCD", "cmp_lt");
    ("GCD/subtractor", "GCD", "subtractor");
    ("DES3/sbox1", "DES3", "sbox1");
    ("DES3/sbox5", "DES3", "sbox5") ]

let () =
  Format.printf "%-16s %8s %8s %6s %8s %10s %8s@." "candidate" "luts"
    "key bits" "DIPs" "time(s)" "converged" "correct";
  List.iter
    (fun (label, bench, module_name) ->
      let b = Option.get (B.find bench) in
      let design = B.elaborate b in
      let circuit = N.Synth.synthesize_module design module_name in
      let mapped = N.Lutmap.map ~k:4 circuit in
      let budget = { Sec.Sat_attack.max_iterations = 128; solver_conflicts = None } in
      let locked = Sec.Locked.of_mapped mapped in
      let oracle = Sec.Locked.make_oracle locked in
      let outcome = Sec.Sat_attack.attack ~budget locked ~oracle in
      let correct =
        match outcome.Sec.Sat_attack.key with
        | Some key -> Sec.Locked.key_is_correct locked key
        | None -> false
      in
      Format.printf "%-16s %8d %8d %6d %8.2f %10b %8b@." label
        (N.Circuit.lut_count mapped)
        outcome.Sec.Sat_attack.key_bits outcome.Sec.Sat_attack.iterations
        outcome.Sec.Sat_attack.seconds
        (outcome.Sec.Sat_attack.status = Sec.Sat_attack.Converged)
        correct)
    candidates;
  Format.printf
    "@.Reading: key length (and with it attack effort) grows with the@.\
     logic actually placed on the fabric. A fabric sized far above its@.\
     content adds configuration bits an attacker does not need to@.\
     recover exactly, which is the intuition behind preferring highly@.\
     utilized fabrics in the selection score.@."
