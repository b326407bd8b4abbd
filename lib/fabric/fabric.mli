(** A sized fabric instance: a [width x width] grid of CLBs surrounded
    by an I/O ring with [2*width] usable tiles — a 4x4 fabric with 8
    GPIO per tile exposes the paper's 64 pins. *)

type t = { arch : Arch.t; width : int }

(** Raises [Invalid_argument] on non-positive width. *)
val make : Arch.t -> int -> t

val clb_count : t -> int

val lut_capacity : t -> int

val ff_capacity : t -> int

val io_tile_count : t -> int

val io_capacity : t -> int

val channel_tracks : t -> int

(** ["WxW"]. *)
val size_label : t -> string
