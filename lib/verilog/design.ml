(** Queries over an elaborated design: instance tree, per-module instance
    counts, module listings. This is the "design database" the ALICE flow
    phases operate on. *)

module Smap = Elaborate.Smap

(** A node of the instance tree. [path] is the hierarchical name, e.g.
    ["top.u_core.u_alu"]. The tree root represents the top module itself
    with [path = top name]. *)
type tree = {
  path : string;
  inst_name : string;
  module_name : string;       (* specialized *)
  orig_module_name : string;
  children : tree list;
}

let instance_tree (d : Elaborate.design) : tree =
  let rec node path inst_name module_name orig =
    let em = Elaborate.find_emodule d module_name in
    let children =
      List.map
        (fun (ei : Elaborate.einstance) ->
          node (path ^ "." ^ ei.ei_name) ei.ei_name ei.ei_module ei.ei_orig_module)
        em.em_instances
    in
    { path; inst_name; module_name; orig_module_name = orig; children }
  in
  node d.d_top d.d_top d.d_top d.d_top

let rec fold_tree f acc node =
  let acc = f acc node in
  List.fold_left (fold_tree f) acc node.children

(** All instance nodes excluding the top itself, in preorder. *)
let all_instances (d : Elaborate.design) : tree list =
  let root = instance_tree d in
  List.rev
    (fold_tree (fun acc n -> if n.path = root.path then acc else n :: acc) [] root)

(** Modules of the design, excluding the top module (which is never a
    redaction candidate), keyed by specialized name. *)
let non_top_modules (d : Elaborate.design) : Elaborate.emodule list =
  Smap.bindings d.d_modules
  |> List.filter_map (fun (name, m) -> if name = d.d_top then None else Some m)

(** I/O pins of an instance's module, the structural criterion of
    Algorithm 2; a cluster has the sum of its members' pins. *)
let io_pins (d : Elaborate.design) (n : tree) : int =
  Elaborate.io_pin_count (Elaborate.find_emodule d n.module_name)

(** Number of non-top module *types*, as reported in Table 1. *)
let module_count (d : Elaborate.design) : int = List.length (non_top_modules d)

(** Number of instances that could be redacted (all non-top instance
    nodes), as reported in Table 1. *)
let instance_count (d : Elaborate.design) : int =
  List.length (all_instances d)

(** [min, max] I/O pin count over non-top modules, as in Table 1. *)
let io_pin_range (d : Elaborate.design) : int * int =
  let counts = List.map Elaborate.io_pin_count (non_top_modules d) in
  match counts with
  | [] -> (0, 0)
  | c :: rest ->
    List.fold_left (fun (lo, hi) c -> (min lo c, max hi c)) (c, c) rest

(** Find the instances (paths) of a given specialized module name. *)
let instances_of_module (d : Elaborate.design) name : tree list =
  List.filter (fun n -> n.module_name = name) (all_instances d)
