(** A circuit locked by eFPGA redaction: a LUT-mapped netlist whose
    truth tables are secret. The bitstream restricted to LUT content is
    the key; registers are scan-exposed per the threat model. *)

module Circuit = Alice_netlist.Circuit
module Cnf = Alice_sat.Cnf

type t = {
  circuit : Circuit.t;  (** LUT-mapped netlist *)
  key_bits : int;
  correct_key : bool array;
  offsets : (Circuit.net * int) list;  (** LUT output net -> key offset *)
}

(** Lock a LUT-mapped circuit. *)
val of_mapped : Circuit.t -> t

(** Inputs of the scan-exposed combinational core (PIs then DFF Qs). *)
val input_nets : t -> Circuit.net array

(** Outputs of the core (POs then DFF Ds). *)
val output_nets : t -> Circuit.net array

(** Encode one locked copy: non-LUT gates as usual, LUTs reading their
    truth tables from [key_vars]. [share] maps nets to existing CNF
    variables. Returns this copy's net-to-variable map: a net [share]
    does not map gets a fresh variable, in ascending net order, only if
    a gate reads or drives it or it is a core input or output (a PI, PO,
    DFF D or Q); every other net maps to 0, which is no variable. *)
val encode_locked :
  Cnf.t -> t -> key_vars:int array -> share:(Circuit.net -> int option) -> int array

(** Instantiate the circuit with an arbitrary key. *)
val apply_key : t -> bool array -> Circuit.t

(** Whether the key unlocks the original function, proved with
    {!Alice_sat.Equiv.check} over the scan-exposed core. *)
val key_is_correct : t -> bool array -> bool

(** The oracle of the threat model: evaluate the unlocked core on a
    scan-input stimulus. *)
val make_oracle : t -> bool array -> bool array
