(** CreateEFPGA: find the minimum fabric implementing a mapped circuit,
    mirroring the paper's use of OpenFPGA. A width is feasible when the
    packed CLBs fit under the target utilization, the I/O bits fit the
    pad ring, and the congestion estimate stays within the track
    budget. *)

module Circuit = Alice_netlist.Circuit

type implementation = {
  fabric : Fabric.t;
  placement : Place.placement;
  routing : Route.report;
  luts_used : int;
  ffs_used : int;
  io_used : int;
  clbs_used : int;
  io_util : float;
  clb_util : float;
  bitstream_bits : int;
  lut_depth : int;
}

(** Congestion payload for routing failures: the last width attempted
    and its peak channel demand against the track budget. *)
type congestion = {
  cg_width : int;
  cg_demand : int;
  cg_tracks : int;
}

type failure =
  | Too_large of Place.fit_failure
      (** no permitted width fits; carries the last width's structured
          fit failure (resource, demand, capacity) *)
  | Unroutable of congestion
      (** congestion exceeded the track budget at every permitted size;
          carries the last width's peak demand *)
  | Empty_circuit

val failure_to_string : failure -> string

(** The largest CLB count the utilization target admits on a fabric of
    [clb_cap] CLBs — the integer form of the feasibility comparison,
    shared between the width test and the fit-failure payload so the
    reported "available" always matches what the test enforced. A
    placement of exactly this many CLBs is feasible. *)
val clb_budget : target_utilization:float -> clb_cap:int -> int

(** [place_route arch mapped clbs w] places the packed [clbs] of
    [mapped] on a [w]-wide fabric of [arch] and routes the placement.
    Deterministic, and it reads nothing but its arguments, so its result
    may be reused for any search that reaches width [w] with the same
    circuit, packing and architecture. *)
val place_route :
  Arch.t -> Circuit.t -> Place.clb list -> int -> Place.placement * Route.report

(** The one minimum-size search loop. [mapped] must already be
    LUT-mapped. A circuit without I/O is [Empty_circuit] before [pack]
    is called; otherwise [pack ()] runs once and the widths from
    [max 1 min_size] up are tested on the CLB, I/O and utilization
    counts, and only a width passing all three goes to
    [place_route clbs w]. The implementation's [fabric] is the
    placement's own, so a memoized [place_route] gives the value a
    fresh one would. Exceptions from [pack] and
    [place_route] propagate. *)
val search :
  Arch.t ->
  min_size:int ->
  max_size:int ->
  target_utilization:float ->
  pack:(unit -> Place.clb list) ->
  place_route:(Place.clb list -> int -> Place.placement * Route.report) ->
  Circuit.t ->
  (implementation, failure) result

(** {!search} with {!Place.pack} and {!place_route} computed directly. *)
val minimum :
  Arch.t ->
  min_size:int ->
  max_size:int ->
  target_utilization:float ->
  Circuit.t ->
  (implementation, failure) result

val pp_implementation : Format.formatter -> implementation -> unit

(* ---------- searchable axes (pre-architecture advisor) ---------- *)

(** The smallest width whose pad ring carries [io_bits] I/O bits under
    [arch] (2·width tiles of [gpio_per_tile] bits each), floored at
    [min_size] — the same ring-capacity test [minimum] enforces, so a
    width below this is infeasible for any cluster with that many pins. *)
val min_width_for_io : Arch.t -> min_size:int -> io_bits:int -> int

(** Candidate [max_fabric_size] bounds worth sweeping for a design whose
    widest protected cluster carries [io_bits] I/O bits: a tight bound
    just past the pad-ring minimum, a medium bound with CLB headroom,
    and the caller's own [max_size] as the roomy bound. Sorted,
    deduplicated, clamped to \[[min_width_for_io], [max_size]\] — the
    grid axis the advisor enumerates when the user gives no explicit
    [max_fabric_size] list. *)
val suggested_max_widths :
  Arch.t -> min_size:int -> max_size:int -> io_bits:int -> int list
