(** Security metrics for redaction candidates.

    The DAC'22 paper scores candidates structurally (Eq. 1) and cites the
    SAT-attack studies [3,4] for the direction of that score; the
    scorer runs that attack ({!Sat_attack}) on locked candidates. This
    module checks whether a recovered key is functionally correct. *)

module Simulate = Alice_netlist.Simulate

(** Compare the recovered key's circuit against the original on
    [samples] random scan vectors (exhaustive when the input space is
    at most 2^16). *)
let key_is_correct ?(samples = 512) (l : Locked.t) (key : bool array) : bool =
  let keyed = Locked.apply_key l key in
  let sim_ref = Simulate.create l.Locked.circuit in
  let sim_key = Simulate.create keyed in
  let ins = Locked.input_nets l in
  let outs = Locked.output_nets l in
  let nin = Array.length ins in
  let run (sim : Simulate.t) stimulus =
    Array.iteri (fun i n -> sim.Simulate.values.(n) <- stimulus.(i)) ins;
    Simulate.eval sim;
    Array.map (fun n -> sim.Simulate.values.(n)) outs
  in
  let check stimulus = run sim_ref stimulus = run sim_key stimulus in
  if nin <= 16 then begin
    let ok = ref true in
    let v = ref 0 in
    while !ok && !v < 1 lsl nin do
      let stimulus = Array.init nin (fun i -> (!v lsr i) land 1 = 1) in
      if not (check stimulus) then ok := false;
      incr v
    done;
    !ok
  end
  else begin
    let state = Random.State.make [| 0x5ecdef; nin |] in
    let ok = ref true in
    for _ = 1 to samples do
      let stimulus = Array.init nin (fun _ -> Random.State.bool state) in
      if not (check stimulus) then ok := false
    done;
    !ok
  end
