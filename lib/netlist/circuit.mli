(** Gate-level netlist intermediate representation.

    Nets are integers; every net is driven by exactly one gate, one D
    flip-flop, or a primary input. Gates carry the hierarchical path of
    the RTL instance they were synthesized from. A single implicit clock
    domain is assumed. *)

type net = int

type gate_kind =
  | Const of bool
  | Buf
  | Not
  | And
  | Or
  | Xor
  | Xnor
  | Nand
  | Nor
  | Mux  (** inputs [sel; a; b]: output = sel ? b : a *)
  | Lut of bool array
      (** truth table, index = inputs read as little-endian bits *)

type gate = {
  kind : gate_kind;
  inputs : net array;
  output : net;
  path : string;  (** hierarchical instance path of origin *)
}

type dff = { d : net; q : net }

type t = {
  mutable next_net : int;
  mutable gates : gate list;  (** reverse creation order *)
  mutable gate_count : int;
  mutable dffs : dff list;
  mutable inputs : (string * net array) list;  (** port name, LSB first *)
  mutable outputs : (string * net array) list;
  name : string;
}

val create : string -> t

val fresh_net : t -> net

(** Add a gate with a freshly allocated output net; returns it. *)
val add_gate : t -> ?path:string -> gate_kind -> net array -> net

(** Add a gate driving a pre-allocated net. *)
val add_gate_with_output :
  t -> ?path:string -> gate_kind -> net array -> output:net -> unit

(** Add a DFF with a pre-allocated Q net. *)
val add_dff_q : t -> d:net -> q:net -> unit

val add_input : t -> string -> int -> net array

val set_output : t -> string -> net array -> unit

val const : t -> ?path:string -> bool -> net

val gates_in_order : t -> gate list

val dff_list : t -> dff list

(** For every net, the index in [gates] of the gate driving it, or -1
    (the last one when several do). *)
val driver_index : t -> gate array -> int array

(** For every net, whether it is a source of the combinational logic:
    a primary input or a DFF output. *)
val source_nets : t -> bool array

val gate_count : t -> int

val dff_count : t -> int

val input_bit_count : t -> int

val io_bit_count : t -> int

val find_input : t -> string -> net array option

val find_output : t -> string -> net array option

(** Number of LUT gates (meaningful after {!Lutmap.map}). *)
val lut_count : t -> int

(** Evaluate one gate over concrete input values. *)
val eval_gate : gate_kind -> bool array -> bool
