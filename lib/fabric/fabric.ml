(** A sized fabric instance: a [width x width] grid of CLBs surrounded by
    an I/O ring. Capacity accounting used by the minimum-size search and
    by Eq. 1's utilization terms. *)

type t = {
  arch : Arch.t;
  width : int;  (* fabrics are square, as in the paper's results *)
}

let make arch width =
  if width < 1 then invalid_arg "fabric width must be >= 1";
  { arch; width }

let clb_count (f : t) = f.width * f.width

let lut_capacity (f : t) = clb_count f * f.arch.Arch.luts_per_clb

let ff_capacity (f : t) = clb_count f * f.arch.Arch.ffs_per_clb

(** Usable I/O tiles: two per column (top and bottom rows), i.e. [2*W].
    A 4x4 fabric with 8 GPIO per tile thus exposes 64 pins, matching the
    paper's sizing remark. *)
let io_tile_count (f : t) = 2 * f.width

let io_capacity (f : t) = io_tile_count f * f.arch.Arch.gpio_per_tile

let channel_tracks (f : t) = Arch.channel_tracks f.arch f.width

let size_label (f : t) = Printf.sprintf "%dx%d" f.width f.width
