(** CreateEFPGA: find the minimum fabric that implements a mapped
    circuit, mirroring the paper's use of OpenFPGA ("each OpenFPGA run
    aims at identifying the most suitable fabric, i.e. the one with
    minimum size, to implement the given modules").

    A width is feasible when the packed CLBs fit under the target
    utilization (the routability slack a real flow needs), the I/O bits
    fit the pad ring, and the congestion estimate stays within the track
    budget. *)

module Circuit = Alice_netlist.Circuit
module Lutmap = Alice_netlist.Lutmap
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

type congestion = {
  cg_width : int;        (* last fabric width attempted *)
  cg_demand : int;       (* peak channel demand at that width *)
  cg_tracks : int;       (* tracks available per channel *)
}

type failure =
  | Too_large of Place.fit_failure
      (* the last width's structured fit failure, beyond max size *)
  | Unroutable of congestion
  | Empty_circuit

let failure_to_string = function
  | Too_large fe ->
    Printf.sprintf "no permitted fabric fits (last attempt: %s)"
      (Place.fit_failure_to_string fe)
  | Unroutable cg ->
    Printf.sprintf
      "congestion exceeds the track budget at every permitted size \
       (at %dx%d: peak demand %d over %d tracks)"
      cg.cg_width cg.cg_width cg.cg_demand cg.cg_tracks
  | Empty_circuit -> "cluster synthesizes to an empty circuit"

(** The largest CLB count the utilization target admits on a fabric of
    [clb_cap] CLBs. This is the single integer form of the feasibility
    test: [try_width] compares against it and the fit-failure payload
    reports it, so the two can never disagree (the payload previously
    re-truncated the float product independently of the comparison). *)
let clb_budget ~(target_utilization : float) ~(clb_cap : int) : int =
  int_of_float (Float.floor (target_utilization *. float_of_int clb_cap))

(** Place and route the packed [clusters] of [mapped] on a [w]-wide
    fabric of [arch]: the one step of the search that depends on the
    width. *)
let place_route (arch : Arch.t) (mapped : Circuit.t)
    (clusters : Place.clb list) (w : int) : Place.placement * Route.report =
  let placement = Place.place_packed (Fabric.make arch w) mapped clusters in
  (placement, Route.route placement)

(** Minimum-size search over permitted widths. [mapped] must already be
    LUT-mapped. Packing does not depend on the width, so [pack] runs
    once, and only for a circuit with I/O; the CLB, I/O and utilization
    tests are then counts, and only a width passing all three goes to
    [place_route]. The implementation's fabric is the placement's own,
    so a memoized [place_route] yields the same value graph as a fresh
    one. *)
let search (arch : Arch.t) ~(min_size : int) ~(max_size : int)
    ~(target_utilization : float) ~(pack : unit -> Place.clb list)
    ~(place_route : Place.clb list -> int -> Place.placement * Route.report)
    (mapped : Circuit.t) : (implementation, failure) result =
  let io_used = Circuit.io_bit_count mapped in
  if io_used = 0 then Error Empty_circuit
  else begin
    let clusters = pack () in
    let clbs_used = List.length clusters in
    (* one width; errors carry the structured payload so the caller can
       report what failed at the final attempted size *)
    let try_width w =
      let sized = Fabric.make arch w in
      let clb_cap = Fabric.clb_count sized and io_cap = Fabric.io_capacity sized in
      let budget = clb_budget ~target_utilization ~clb_cap in
      let no_fit resource needed available =
        Error (`No_fit (Place.fit_failure ~width:w ~resource ~needed ~available))
      in
      if clbs_used > clb_cap then no_fit `Clb clbs_used clb_cap
      else if io_used > io_cap then no_fit `Io io_used io_cap
      else if clbs_used > budget then no_fit `Utilization clbs_used budget
      else begin
        let placement, routing = place_route clusters w in
        if not routing.Route.routable then
          Error
            (`No_route
               { cg_width = w;
                 cg_demand = routing.Route.max_demand;
                 cg_tracks = routing.Route.tracks_available })
        else
          let fabric = placement.Place.fabric in
          Ok
            { fabric; placement; routing;
              luts_used = Circuit.lut_count mapped;
              ffs_used = Circuit.dff_count mapped;
              io_used; clbs_used;
              io_util = float_of_int io_used /. float_of_int io_cap;
              clb_util = float_of_int clbs_used /. float_of_int clb_cap;
              bitstream_bits = Bitstream.length fabric;
              lut_depth = Lutmap.depth mapped }
      end
    in
    (* remember the last failure of each kind so the caller sees what
       went wrong at the final attempted size, not just that it did *)
    let rec go w last_no_route last_no_fit =
      if w > max_size then
        match (last_no_route, last_no_fit) with
        | Some cg, _ -> Error (Unroutable cg)
        | None, Some fe -> Error (Too_large fe)
        | None, None ->
          (* min_size > max_size: nothing was ever attempted *)
          Error
            (Too_large
               (Place.fit_failure ~width:max_size ~resource:`Clb ~needed:0
                  ~available:0))
      else
        match try_width w with
        | Ok impl -> Ok impl
        | Error (`No_fit fe) -> go (w + 1) last_no_route (Some fe)
        | Error (`No_route cg) -> go (w + 1) (Some cg) last_no_fit
    in
    go (max 1 min_size) None None
  end

let minimum (arch : Arch.t) ~(min_size : int) ~(max_size : int)
    ~(target_utilization : float) (mapped : Circuit.t) :
    (implementation, failure) result =
  search arch ~min_size ~max_size ~target_utilization
    ~pack:(fun () -> Place.pack arch mapped)
    ~place_route:(place_route arch mapped) mapped

let pp_implementation fmt (impl : implementation) =
  Format.fprintf fmt
    "%s: %d LUTs, %d FFs, %d I/O; CLB util %.0f%%, I/O util %.0f%%, %d cfg bits"
    (Fabric.size_label impl.fabric) impl.luts_used impl.ffs_used impl.io_used
    (100. *. impl.clb_util) (100. *. impl.io_util) impl.bitstream_bits

(* ---------- searchable axes (pre-architecture advisor) ---------- *)

let min_width_for_io (arch : Arch.t) ~(min_size : int) ~(io_bits : int) : int =
  let ring_bits_per_width = 2 * arch.Arch.gpio_per_tile in
  let need = (io_bits + ring_bits_per_width - 1) / ring_bits_per_width in
  max 1 (max min_size need)

let suggested_max_widths (arch : Arch.t) ~(min_size : int) ~(max_size : int)
    ~(io_bits : int) : int list =
  let w0 = min_width_for_io arch ~min_size ~io_bits in
  let clamp w = min max_size (max w0 w) in
  (* tight: barely past the pad-ring minimum; medium: ~2x the minimum
     for CLB headroom (the ring constraint says nothing about logic
     capacity); roomy: everything the caller permits *)
  List.sort_uniq compare [ clamp (w0 + 2); clamp (2 * w0); clamp max_size ]
