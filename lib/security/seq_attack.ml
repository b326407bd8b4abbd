(** Sequential SAT attack without scan access.

    The paper's threat model grants the attacker a fully-scanned oracle,
    which reduces the problem to the combinational core. When scan is
    absent, the standard alternative unrolls the locked circuit over a
    bounded number of cycles: key variables are shared across the time
    frames' copies of every LUT, a distinguishing input becomes a
    distinguishing *sequence* from reset, and the oracle is the running
    device observed over the same window.

    Convergence certifies that no two keys are distinguishable within
    [cycles] observations — the usual bounded guarantee; deeper
    differences need a larger window. *)

module Circuit = Alice_netlist.Circuit
module Unroll = Alice_netlist.Unroll

(** Unroll a locked circuit, sharing key offsets across every frame's
    copy of each LUT. *)
let lock_unrolled (l : Locked.t) ~(cycles : int) : Locked.t =
  let unrolled, maps = Unroll.unroll_with_map ~cycles l.Locked.circuit in
  let offsets =
    List.concat_map
      (fun (net, off) ->
        List.filter_map
          (fun t -> Option.map (fun n -> (n, off)) (maps.(t) net))
          (List.init cycles Fun.id))
      l.Locked.offsets
  in
  { Locked.circuit = unrolled; key_bits = l.Locked.key_bits;
    correct_key = l.Locked.correct_key; offsets }

(** Attack a sequential locked circuit through [cycles] frames. The
    oracle is derived from the unrolled correct circuit, which by
    construction equals the running device observed from reset. The
    budget (including any [solver_conflicts] bound) passes straight to
    {!Sat_attack.attack}, so an exhausted solver budget surfaces here
    as the same [Inconclusive] status. *)
let attack ?budget (l : Locked.t) ~(cycles : int) : Sat_attack.outcome =
  let ul = lock_unrolled l ~cycles in
  let oracle = Locked.make_oracle ul in
  Sat_attack.attack ?budget ul ~oracle

(** Functional check of a recovered key over the bounded window. *)
let key_correct_bounded (l : Locked.t) ~(cycles : int) (key : bool array) : bool =
  Locked.key_is_correct (lock_unrolled l ~cycles) key
