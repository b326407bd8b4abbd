(** Technology mapping onto k-input LUTs via cut enumeration with
    area-flow selection. Buffers are transparent; primary outputs and
    DFF D-pins reached through pure buffer chains are rewired instead of
    costing identity LUTs. The mapped circuit reuses the original net
    numbering, so I/O and DFF records carry over. *)

type mapping = {
  k : int;
  luts : (Circuit.net * int list * bool array) list;
      (** output net, leaf nets, truth table *)
}

(** Map a circuit onto k-LUTs; returns the mapped circuit (LUT gates
    only) and the mapping description. Raises [Invalid_argument] when
    [k < 2], or when a gate the cover needs has no cut of at most [k]
    leaves (a 3-input mux at [k = 2]): the mapping is complete or there
    is none. *)
val map : k:int -> Circuit.t -> Circuit.t * mapping

(** [cover c ~lut] is the cover {!map} ends with, for a caller that
    already knows each net's LUT: a breadth-first pass from [c]'s roots
    (its outputs, then its DFFs' D pins, in list order) that emits
    [lut net], leaves and truth table, for every net it reaches that is
    neither a primary input nor a DFF output, and demands that LUT's
    leaves in order; [None] emits nothing. [c]'s outputs and D pins must
    already be rewired past buffer chains, as {!map} rewires them, and
    its gates are not read. The result keeps [c]'s net numbering, I/O
    and DFFs, has the emitted LUTs as its only gates, and is named
    [c]'s name with [_lutmapped]. Each LUT's arrays go into the circuit
    as given. *)
val cover :
  Circuit.t -> lut:(Circuit.net -> (Circuit.net array * bool array) option) ->
  Circuit.t

val lut_count : mapping -> int

(** Depth in LUT levels of a mapped circuit. *)
val depth : Circuit.t -> int
