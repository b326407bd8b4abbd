(** A circuit locked by eFPGA redaction: a LUT-mapped netlist whose
    truth tables are secret. The bitstream restricted to LUT content is
    the key; registers are scan-exposed per the threat model.

    A lock is compiled once, by {!of_mapped}: the gates in load order,
    each LUT's key offset, the nets a copy gives variables to, the core
    inputs and outputs, and the nets loading a copy can fix. Encoding a
    copy, keying the circuit and the oracle read that data, so the two
    replays of every DIP re-derive none of it. *)

module Circuit = Alice_netlist.Circuit
module Cnf = Alice_sat.Cnf

(** What encoding a copy reads, fixed per lock. *)
type compiled

type t = private {
  circuit : Circuit.t;  (** LUT-mapped netlist *)
  key_bits : int;
  correct_key : bool array;
      (** the key layout: every LUT's truth table, concatenated in
          {!Circuit.gates_in_order} *)
  compiled : compiled;
}

(** Lock a LUT-mapped circuit and compile it. The circuit must not
    change afterwards. *)
val of_mapped : Circuit.t -> t

(** The core's inputs: {!Alice_sat.Equiv.scan_inputs}, flattened. The
    lock's own array: do not mutate it. *)
val input_nets : t -> Circuit.net array

(** The core's outputs: {!Alice_sat.Equiv.scan_outputs}, flattened. The
    lock's own array: do not mutate it. *)
val output_nets : t -> Circuit.net array

(** Encode one locked copy: non-LUT gates as usual, LUTs reading their
    truth tables from [key_vars]. [share] maps nets to existing CNF
    variables. Returns this copy's net-to-variable map: a net [share]
    does not map gets a fresh variable, in ascending net order, only if
    a gate reads or drives it or it is a core input or output (a PI, PO,
    DFF D or Q); every other net maps to 0, which is no variable.

    [pins] (by net; [None] is free) holds the values that the unit
    clauses the caller adds right after the copy give its nets, as a
    replayed query pins its stimulus and response; such a copy shares
    no net. A LUT-row clause a pinned value satisfies is left out,
    unless loading the copy could fix that net before its pin (the
    output of a LUT with no input, for one). Gates other than LUTs keep
    all their clauses. Variables, their numbering, and the order and
    literals of the kept clauses are what the call without [pins]
    gives. *)
val encode_locked :
  ?pins:bool option array ->
  Cnf.t -> t -> key_vars:int array -> share:(Circuit.net -> int option) -> int array

(** Instantiate the circuit with an arbitrary key. *)
val apply_key : t -> bool array -> Circuit.t

(** Whether the key unlocks the original function, proved with
    {!Alice_sat.Equiv.check} over the scan-exposed core. *)
val key_is_correct : t -> bool array -> bool

(** The oracle of the threat model: evaluate the unlocked core on a
    scan-input stimulus. *)
val make_oracle : t -> bool array -> bool array
