(** Packing and placement of a LUT-mapped circuit onto a fabric grid:
    DFFs pair with the LUT driving their D input, logic elements cluster
    into CLBs greedily by connectivity, and placement refines a
    space-filling initial order with pairwise-swap hill climbing on
    half-perimeter wirelength. *)

module Circuit = Alice_netlist.Circuit

type logic_element = {
  le_lut : Circuit.net option;   (** output net of the LUT, if any *)
  le_ff : Circuit.net option;    (** Q net of the paired DFF, if any *)
  le_inputs : Circuit.net list;
}

type clb = { les : logic_element list }

type placement = {
  fabric : Fabric.t;
  clbs : (clb * (int * int)) list;  (** cluster, grid position *)
  io_sites : (Circuit.net * (int * int)) list;  (** port bit -> pad *)
  wirelength : float;  (** total HPWL in tile units *)
}

(** Structured fit-failure payload: the attempted fabric width, the
    resource that ran out, and the demand/capacity numbers — enough for
    diagnostics to report utilization rather than just "does not fit". *)
type fit_failure = {
  fit_width : int;                          (** attempted fabric width *)
  fit_resource : [ `Clb | `Io | `Utilization ];
  fit_needed : int;
  fit_available : int;
  fit_utilization : float;                  (** needed / available *)
}

val fit_failure :
  width:int ->
  resource:[ `Clb | `Io | `Utilization ] ->
  needed:int ->
  available:int ->
  fit_failure

val fit_failure_to_string : fit_failure -> string

exception Does_not_fit of fit_failure

(** All nets touching a logic element (outputs then inputs). *)
val element_nets : logic_element -> Circuit.net list

(** Greedy connectivity-driven packing into CLBs. Packing does not
    depend on the fabric width. Raises [Invalid_argument] when the
    architecture has fewer than one LUT per CLB. *)
val pack : Arch.t -> Circuit.t -> clb list

(** Placement effort: [`Greedy] (default) pairwise-swap hill climbing;
    [`Anneal] adds a simulated-annealing refinement. *)
type effort = [ `Anneal | `Greedy ]

(** Place already-packed clusters of the circuit onto the fabric; raises
    {!Does_not_fit} when CLBs or I/O bits exceed capacity. *)
val place_packed : ?effort:effort -> Fabric.t -> Circuit.t -> clb list -> placement

(** [place_packed] of [pack]. *)
val place : ?effort:effort -> Fabric.t -> Circuit.t -> placement
