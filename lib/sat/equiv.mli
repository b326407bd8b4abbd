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

type result =
  | Equivalent
  | Different of counterexample
  | Unknown  (** the solver's budget ran out before a verdict *)

exception Interface_mismatch of string

(** The threat model's scan view, as named net groups: the core reads
    the primary inputs, then each DFF's Q ([$ff<i>]), and drives the
    primary outputs, then each DFF's D ([$ff<i>_d]). *)
val scan_inputs : Circuit.t -> (string * Circuit.net array) list
val scan_outputs : Circuit.t -> (string * Circuit.net array) list

(** Raises {!Interface_mismatch} when port names/widths or register
    counts differ. [solver_budget] bounds the solver's conflicts; an
    exhausted budget yields {!Unknown}. *)
val check : ?solver_budget:int -> Circuit.t -> Circuit.t -> result

(** Check every candidate against the same reference on one shared
    incremental solver session: the reference cone is encoded once and
    learnt clauses carry across the batch. Results in candidate order;
    [solver_budget] applies per candidate. *)
val check_many :
  ?solver_budget:int -> Circuit.t -> Circuit.t list -> result list

val pp_counterexample : Format.formatter -> counterexample -> unit
