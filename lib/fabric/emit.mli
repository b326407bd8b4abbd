(** Verilog emission for eFPGA fabric instances, in three views:
    the opaque stub the foundry sees, the programmed view (behavioral
    equivalent of the redacted cluster, for verification), and the
    structural view (a real configurable LUT array behind a scan chain).
    All outputs parse with the bundled frontend. *)

module Circuit = Alice_netlist.Circuit

(** One redacted instance inside a fabric: module/instance names and the
    ordered input and output ports with widths, defining the GPIO
    packing (member order, LSB first). *)
type member = {
  member_module : string;
  member_instance : string;
  member_params : (string * int) list;
      (** parameter overrides of the redacted instance *)
  in_ports : (string * int) list;
  out_ports : (string * int) list;
}

val opaque_wrapper :
  name:string -> fabric:Fabric.t -> gpio_in:int -> gpio_out:int -> string

(** [gpio_in] and [gpio_out] are the sums of the members' input and
    output port widths. *)
val programmed_wrapper :
  name:string -> fabric:Fabric.t -> gpio_in:int -> gpio_out:int ->
  members:member list -> string

(** The structural fabric: a configuration shift register of
    {!Bitstream.layout} length feeding LUT truth tables in placement
    order; flip-flops advance on [cfg_clk] whenever [cfg_en] is low. *)
val structural_wrapper :
  name:string -> placement:Place.placement -> mapped:Circuit.t -> string
