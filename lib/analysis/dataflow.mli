(** Hierarchical dataflow analysis.

    One flat dataflow graph over the whole design; nodes are
    [instance-path "/" variable] pairs, edges follow data from reads to
    writes (control-condition reads included; clock/reset edge events
    excluded). This is the analysis Algorithm 1's module filtering spends
    its time on. *)

type t = {
  design : Alice_verilog.Elaborate.design;
  graph : Graph.t;
  top_path : string;
}

(** Build the flat dataflow graph of an elaborated design. *)
val build : Alice_verilog.Elaborate.design -> t

(** All top-level output port names. *)
val top_outputs : t -> string list

(** Instance nodes whose module logic lies in the backward cone of the
    given top-level output. *)
val instances_affecting : t -> output:string -> Alice_verilog.Design.tree list

(** Per-module scores of Algorithm 1: for each selected output, every
    module with at least one affecting instance gets +1. Sorted by
    descending score. [outputs = []] means all top outputs. *)
val module_scores : t -> outputs:string list -> (string * int) list

(** One dependence notion — {!instances_dependent} when [transitive],
    else {!instances_directly_connected} — as a predicate that finds
    each instance's input nodes and the nodes its outputs reach once,
    however many pairs it is asked about: for whole dependence
    relations. *)
val dependence :
  t -> transitive:bool -> Alice_verilog.Design.tree ->
  Alice_verilog.Design.tree -> bool

(** Direct dependence: one instance's output is wired (within two hops of
    the dataflow graph, i.e. through at most one continuous assignment)
    into the other's input. The default notion of "independent modules"
    for multi-module redaction. Nesting counts as dependence. *)
val instances_directly_connected :
  t -> Alice_verilog.Design.tree -> Alice_verilog.Design.tree -> bool

(** Transitive dependence: any dataflow path connects the two instances,
    even through registers and unrelated logic. *)
val instances_dependent :
  t -> Alice_verilog.Design.tree -> Alice_verilog.Design.tree -> bool
