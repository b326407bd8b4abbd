(** Levelized two-valued simulation of a {!Circuit.t}: the circuit is
    topologically sorted once, evaluation is one linear pass, and
    {!step} clocks every DFF simultaneously. *)

exception Combinational_cycle of string

type t = {
  circuit : Circuit.t;
  order : Circuit.gate array;
  values : bool array;  (** indexed by net; mutable state *)
  dffs : Circuit.dff array;
}

(** Build a simulator; raises {!Combinational_cycle}. *)
val create : Circuit.t -> t

(** Topological gate order of a circuit (shared with {!Lutmap}). *)
val levelize : Circuit.t -> Circuit.gate array

(** [bools_of_int width v] is [v]'s two's-complement bits, LSB first,
    sign-extended to [width]. *)
val bools_of_int : int -> int -> bool array

val int_of_bools : bool array -> int

(** A port value as [alice simulate] prints it: decimal up to 62 bits,
    [<width>'h<hex>] with every hex digit above. *)
val string_of_bits : bool array -> string

val set_input_bits : t -> string -> bool array -> unit

(** Raises [Invalid_argument] naming an input wider than 62 bits, whose
    values an int cannot hold; drive it with {!set_input_bits}. *)
val set_input : t -> string -> int -> unit

(** Propagate values through the combinational logic. *)
val eval : t -> unit

(** One clock cycle: evaluate, then update every DFF from its D input. *)
val step : t -> unit

(** Clear all state (registers and nets) to 0. *)
val reset : t -> unit

val read_output_bits : t -> string -> bool array

(** Raises [Invalid_argument] naming an output wider than 62 bits; read
    it with {!read_output_bits}. *)
val read_output : t -> string -> int

val read_net : t -> Circuit.net -> bool
