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

(** Cut-selection objective: [`Area] (default) minimizes LUT count, the
    driver of fabric size; [`Depth] minimizes logic levels. *)
type mode = [ `Area | `Depth ]

(** Map a circuit onto k-LUTs; returns the mapped circuit (LUT gates
    only) and the mapping description. Raises [Invalid_argument] when
    [k < 2], or when a gate the cover needs has no cut of at most [k]
    leaves (a 3-input mux at [k = 2]): the mapping is complete or there
    is none. *)
val map : ?mode:mode -> k:int -> Circuit.t -> Circuit.t * mapping

val lut_count : mapping -> int

(** Depth in LUT levels of a mapped circuit. *)
val depth : Circuit.t -> int
