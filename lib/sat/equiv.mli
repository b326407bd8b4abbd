(** SAT-based combinational equivalence over the scan-exposed cores:
    exact for sequential circuits whose registers correspond one to one
    (the case for LUT mapping and redaction rewrites in this repo). *)

module Circuit = Alice_netlist.Circuit

(** Each port's value as a bit string, most significant bit first (bit
    0 of the port is the last character), so ports of any width print
    exactly. *)
type counterexample = {
  inputs : (string * string) list;
  outputs_a : (string * string) list;
  outputs_b : (string * string) list;
}

type result = Equivalent | Different of counterexample

exception Interface_mismatch of string

(** The threat model's scan view, as named net groups: the core reads
    the primary inputs, then each DFF's Q ([$ff<i>]), and drives the
    primary outputs, then each DFF's D ([$ff<i>_d]). *)
val scan_inputs : Circuit.t -> (string * Circuit.net array) list
val scan_outputs : Circuit.t -> (string * Circuit.net array) list

(** Build one miter of the two scan-exposed cores and solve it once,
    without a budget, so the verdict is always definite. Raises
    {!Interface_mismatch} when port names/widths or register counts
    differ. *)
val check : Circuit.t -> Circuit.t -> result

val pp_counterexample : Format.formatter -> counterexample -> unit
