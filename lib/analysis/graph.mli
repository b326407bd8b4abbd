(** A small mutable digraph over integer nodes interned from string
    labels, supporting the traversals the dataflow analysis needs. *)

type t

val create : unit -> t

(** Intern a label, creating the node on first use. *)
val node : t -> string -> int

val find_node : t -> string -> int option

val succ : t -> int -> int list

val add_edge : t -> int -> int -> unit

(** Nodes reachable from the given starts following edges forward. *)
val reachable : t -> int list -> (int, unit) Hashtbl.t

(** Nodes from which some start is reachable (backward cone). *)
val coreachable : t -> int list -> (int, unit) Hashtbl.t
