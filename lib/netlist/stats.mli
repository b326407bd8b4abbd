(** Circuit metrics the timing and area models read, before or after
    LUT mapping. *)

(** Combinational depth (buffers and constants are free). *)
val logic_depth : Circuit.t -> int

(** Logic gates excluding buffers and constants: the gate-equivalent
    count the area model charges for the non-redacted ASIC portion. *)
val logic_gate_count : Circuit.t -> int
