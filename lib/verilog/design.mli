(** Queries over an elaborated design: instance tree, per-module instance
    counts, module listings — the "design database" the ALICE flow phases
    operate on. *)

(** A node of the instance tree. [path] is the hierarchical name, e.g.
    ["top.u_core.u_alu"]; the root carries the top module itself. *)
type tree = {
  path : string;
  inst_name : string;
  module_name : string;  (** specialized *)
  orig_module_name : string;
  children : tree list;
}

val instance_tree : Elaborate.design -> tree

val fold_tree : ('a -> tree -> 'a) -> 'a -> tree -> 'a

(** All instance nodes excluding the top itself, in preorder. *)
val all_instances : Elaborate.design -> tree list

(** Modules of the design excluding the top (which is never a redaction
    candidate). *)
val non_top_modules : Elaborate.design -> Elaborate.emodule list

(** I/O pins of an instance's module ({!Elaborate.io_pin_count}): the
    structural criterion of Algorithm 2, which sums it over a cluster's
    members (paper Section 5). *)
val io_pins : Elaborate.design -> tree -> int

(** Number of non-top module types, as reported in the paper's Table 1. *)
val module_count : Elaborate.design -> int

(** Number of redactable instances (all non-top instance nodes). *)
val instance_count : Elaborate.design -> int

(** [min, max] I/O pin count over non-top modules. *)
val io_pin_range : Elaborate.design -> int * int

(** Instances (paths) of a given specialized module name. *)
val instances_of_module : Elaborate.design -> string -> tree list
