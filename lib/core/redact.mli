(** Redacted-design generation (Section 6, final step): replace the
    selected instances with eFPGA instances at the dominator of their
    hierarchy positions, re-routing signals to fabric GPIOs (port
    punching through intermediate modules) and regenerating the Verilog
    of the whole system. The fabric configuration interface surfaces as
    chip pins. *)

module V = Alice_verilog
module F = Alice_fabric

exception Redaction_error of string

(** [Opaque]: the foundry view, member definitions deleted, fabric
    stubs. [Structural]: the foundry view with real configurable LUT
    arrays behind scan chains. [Programmed]: bitstream pre-loaded,
    behaviorally equivalent to the original — for verification. *)
type view = Opaque | Programmed | Structural

type efpga_site = {
  efpga_name : string;
  insertion_point : string;  (** {!insertion_point} of the members *)
  gpio_in_width : int;
  gpio_out_width : int;
  members : F.Emit.member list;
  bitstream : bool array;  (** the secret configuration of this fabric *)
}

type redacted = {
  verilog : string;  (** the full regenerated design *)
  sites : efpga_site list;
  removed_modules : string list;
      (** module definitions absent from the foundry views (only modules
          whose every instance was redacted) *)
}

(** Where the eFPGA holding the instances at paths [members] is
    inserted: the deepest common ancestor of the members' parents,
    compared by [.]-separated segments, so [top.u_dp] is no ancestor of
    [top.u_dpx.u_a]. The instance hierarchy is a tree, whose dominator
    tree is itself, so this is the paper's nearest node dominating every
    member. Raises {!Redaction_error} for the top itself (it has no
    parent) and [Invalid_argument] on an empty list. *)
val insertion_point : string list -> string

(** Generate the redacted design for a selected solution. Raises
    {!Redaction_error} on unsupported structures (e.g. positional
    connections along a port-punching path). *)
val run :
  ?view:view ->
  V.Elaborate.design ->
  V.Ast.design ->
  Selection.solution ->
  redacted
