(** eFPGA fabric architecture family.

    Mirrors the OpenFPGA parameters the paper fixes for its evaluation
    (Section 7): CLBs built from four 4-input fracturable LUTs with one
    flip-flop per logic element, and I/O tiles carrying 8 GPIOs each.
    The I/O ring provides [2*W] usable I/O tiles on a [W x W] fabric,
    matching the paper's remark that a 4x4 configuration offers at most
    64 I/O pins (2*4 tiles * 8 GPIO = 64). *)

type t = {
  lut_inputs : int;     (** k of the k-LUTs *)
  luts_per_clb : int;
  ffs_per_clb : int;
  gpio_per_tile : int;
  routing_tracks_base : int;  (** channel tracks on the smallest fabric *)
  routing_tracks_slope : float;  (** extra tracks per unit of fabric width *)
}

let default =
  { lut_inputs = 4; luts_per_clb = 4; ffs_per_clb = 4; gpio_per_tile = 8;
    routing_tracks_base = 12; routing_tracks_slope = 2.0 }

let of_config (c : Alice_config.Flow_config.t) : t =
  { default with
    lut_inputs = c.lut_inputs;
    luts_per_clb = c.luts_per_clb;
    ffs_per_clb = c.ffs_per_clb;
    gpio_per_tile = c.gpio_per_tile }

(** Routing channel width used on a fabric of width [w]: larger fabrics
    need wider channels, the usual empirical scaling for island-style
    FPGAs. *)
let channel_tracks (arch : t) (w : int) : int =
  arch.routing_tracks_base
  + int_of_float (Float.round (arch.routing_tracks_slope *. float_of_int w))
