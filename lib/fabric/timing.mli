(** Static timing estimate for a placed, LUT-mapped circuit: fixed LUT
    delay plus wirelength-proportional routing delay per net; the
    critical path is the longest path under those arc delays. *)

module Circuit = Alice_netlist.Circuit

type report = {
  critical_path_ns : float;
  logic_levels : int;
}

val estimate : Place.placement -> Circuit.t -> report

(** ASIC reference delay for the same function: gate depth times an
    average standard-cell stage delay. *)
val asic_reference_ns : Circuit.t -> float
