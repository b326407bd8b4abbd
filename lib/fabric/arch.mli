(** eFPGA fabric architecture family: the OpenFPGA parameters the paper
    fixes for its evaluation (CLBs of four 4-input fracturable LUTs, one
    flip-flop per logic element, 8-GPIO I/O tiles). *)

type t = {
  lut_inputs : int;     (** k of the k-LUTs *)
  luts_per_clb : int;
  ffs_per_clb : int;
  gpio_per_tile : int;
  routing_tracks_base : int;  (** channel tracks on the smallest fabric *)
  routing_tracks_slope : float;  (** extra tracks per unit of fabric width *)
}

val default : t

val of_config : Alice_config.Flow_config.t -> t

(** Routing channel width on a fabric of width [w]: larger fabrics need
    wider channels, the usual island-style scaling. *)
val channel_tracks : t -> int -> int
