(** Hierarchical dataflow analysis.

    Builds one flat dataflow graph over the whole design; nodes are
    [instance-path "/" variable] pairs, edges follow data from reads to
    writes. Clock/reset *edge* events do not contribute edges (they gate
    time, not data), but any signal read in a condition does, so an
    asynchronous reset tested inside the body is tracked.

    This is the analysis Algorithm 1 spends its "module filtering" time
    on: which module instances affect which selected top-level outputs,
    and whether two instances are dataflow-independent (a prerequisite
    for multi-module clustering). *)

module V = Alice_verilog

type t = {
  design : V.Elaborate.design;
  graph : Graph.t;
  top_path : string;
}

let var_label path var = path ^ "/" ^ var

(* edges from every source read to every target written *)
let connect g path ~reads ~writes =
  List.iter
    (fun w ->
      let wn = Graph.node g (var_label path w) in
      List.iter
        (fun r -> Graph.add_edge g (Graph.node g (var_label path r)) wn)
        reads)
    writes

let rec add_stmt g path (context : string list) (s : V.Ast.stmt) =
  match s with
  | V.Ast.Blocking (lhs, rhs) | V.Ast.Nonblocking (lhs, rhs) ->
    let reads = V.Ast.expr_idents context rhs in
    let reads =
      match lhs with
      | V.Ast.Bit_select (_, i) -> V.Ast.expr_idents reads i
      | V.Ast.Part_select (_, a, b) ->
        V.Ast.expr_idents (V.Ast.expr_idents reads a) b
      | V.Ast.Ident _ | V.Ast.Num _ | V.Ast.Unary _ | V.Ast.Binary _
      | V.Ast.Ternary _ | V.Ast.Concat _ | V.Ast.Repeat _ -> reads
    in
    connect g path ~reads ~writes:(V.Ast.lvalue_targets [] lhs)
  | V.Ast.If (cond, then_b, else_b) ->
    let context = V.Ast.expr_idents context cond in
    List.iter (add_stmt g path context) then_b;
    List.iter (add_stmt g path context) else_b
  | V.Ast.Case (subject, arms, dflt) ->
    let context = V.Ast.expr_idents context subject in
    List.iter (fun (_, body) -> List.iter (add_stmt g path context) body) arms;
    Option.iter (List.iter (add_stmt g path context)) dflt

let rec add_module (d : V.Elaborate.design) g path (em : V.Elaborate.emodule) =
  List.iter
    (fun (lhs, rhs) ->
      connect g path
        ~reads:(V.Ast.expr_idents [] rhs)
        ~writes:(V.Ast.lvalue_targets [] lhs))
    em.V.Elaborate.em_assigns;
  List.iter
    (fun (_sens, body) -> List.iter (add_stmt g path []) body)
    em.V.Elaborate.em_always;
  List.iter
    (fun (ei : V.Elaborate.einstance) ->
      let child_path = path ^ "." ^ ei.ei_name in
      let child = V.Elaborate.find_emodule d ei.ei_module in
      List.iter
        (fun (port_name, conn) ->
          match conn with
          | None -> ()
          | Some expr -> (
            let port =
              List.find (fun (p : V.Elaborate.eport) -> p.pname = port_name)
                child.V.Elaborate.em_ports
            in
            match port.dir with
            | V.Ast.Input ->
              connect2 g
                ~from:(List.map (var_label path) (V.Ast.expr_idents [] expr))
                ~into:[ var_label child_path port_name ]
            | V.Ast.Output ->
              connect2 g
                ~from:[ var_label child_path port_name ]
                ~into:(List.map (var_label path) (V.Ast.lvalue_targets [] expr))
            | V.Ast.Inout ->
              let outer = List.map (var_label path) (V.Ast.expr_idents [] expr) in
              let inner = [ var_label child_path port_name ] in
              connect2 g ~from:outer ~into:inner;
              connect2 g ~from:inner ~into:outer))
        ei.ei_bindings;
      add_module d g child_path child)
    em.V.Elaborate.em_instances

and connect2 g ~from ~into =
  List.iter
    (fun dst ->
      let dn = Graph.node g dst in
      List.iter (fun src -> Graph.add_edge g (Graph.node g src) dn) from)
    into

(** Build the flat dataflow graph of an elaborated design. *)
let build (d : V.Elaborate.design) : t =
  let g = Graph.create () in
  let top = V.Elaborate.find_emodule d d.V.Elaborate.d_top in
  add_module d g d.V.Elaborate.d_top top;
  { design = d; graph = g; top_path = d.V.Elaborate.d_top }

(** All top-level output port names. *)
let top_outputs (t : t) : string list =
  let top = V.Elaborate.find_emodule t.design t.design.V.Elaborate.d_top in
  List.filter_map
    (fun (p : V.Elaborate.eport) ->
      match p.dir with
      | V.Ast.Output -> Some p.pname
      | V.Ast.Input | V.Ast.Inout -> None)
    top.V.Elaborate.em_ports

(* node ids for the top-level output variable *)
let output_node t output =
  Graph.find_node t.graph (var_label t.top_path output)

(** Instance paths whose module logic lies in the backward cone of the
    given top-level output: at least one of the instance's *output ports*
    is co-reachable from the output. *)
let instances_affecting (t : t) ~(output : string) : V.Design.tree list =
  match output_node t output with
  | None -> []
  | Some out_id ->
    let cone = Graph.coreachable t.graph [ out_id ] in
    let in_cone label =
      match Graph.find_node t.graph label with
      | Some id -> Hashtbl.mem cone id
      | None -> false
    in
    List.filter
      (fun (node : V.Design.tree) ->
        let em = V.Elaborate.find_emodule t.design node.module_name in
        List.exists
          (fun (p : V.Elaborate.eport) ->
            match p.dir with
            | V.Ast.Output | V.Ast.Inout -> in_cone (var_label node.path p.pname)
            | V.Ast.Input -> false)
          em.V.Elaborate.em_ports)
      (V.Design.all_instances t.design)

(** Per-module scores of Algorithm 1 lines 2-9: for each selected output,
    every module with at least one affecting instance gets +1. *)
let module_scores (t : t) ~(outputs : string list) : (string * int) list =
  let outputs = if outputs = [] then top_outputs t else outputs in
  let scores = Hashtbl.create 16 in
  List.iter
    (fun (m : V.Elaborate.emodule) ->
      Hashtbl.replace scores m.V.Elaborate.em_name 0)
    (V.Design.non_top_modules t.design);
  List.iter
    (fun output ->
      let affecting = instances_affecting t ~output in
      let modules_hit = Hashtbl.create 8 in
      List.iter
        (fun (n : V.Design.tree) -> Hashtbl.replace modules_hit n.module_name ())
        affecting;
      Hashtbl.iter
        (fun m () ->
          Hashtbl.replace scores m (1 + Option.value (Hashtbl.find_opt scores m) ~default:0))
        modules_hit)
    outputs;
  Hashtbl.fold (fun m s acc -> (m, s) :: acc) scores []
  |> List.sort (fun (a, sa) (b, sb) -> if sa <> sb then compare sb sa else compare a b)

(* the instance-path prefix test used by both dependence notions *)
let nested a b =
  let prefix p q = String.length q > String.length p
                   && String.sub q 0 (String.length p + 1) = p ^ "." in
  prefix (a : V.Design.tree).path (b : V.Design.tree).path
  || prefix b.path a.path

(* An instance's port nodes: outputs and inouts for [`Out], inputs and
   inouts for [`In]. *)
let port_nodes (t : t) kind (n : V.Design.tree) : int list =
  let em = V.Elaborate.find_emodule t.design n.module_name in
  List.filter_map
    (fun (p : V.Elaborate.eport) ->
      if (kind = `Out && p.dir <> V.Ast.Input)
         || (kind = `In && p.dir <> V.Ast.Output)
      then Graph.find_node t.graph (var_label n.path p.pname)
      else None)
    em.V.Elaborate.em_ports

(** One dependence notion as a predicate that finds each instance's
    input nodes and the nodes its outputs reach once, however many
    pairs it is asked about. [transitive] follows any dataflow path;
    otherwise an output reaches one or two hops, i.e. a wire straight
    into the other's input or through one continuous assignment of
    their parent. Nesting counts as dependence either way. *)
let dependence (t : t) ~(transitive : bool) :
    V.Design.tree -> V.Design.tree -> bool =
  let memo = Hashtbl.create 16 in
  let reach_of (n : V.Design.tree) =
    match Hashtbl.find_opt memo n.path with
    | Some r -> r
    | None ->
      let outs = port_nodes t `Out n in
      let reach =
        if transitive then Graph.reachable t.graph outs
        else begin
          let hops = Hashtbl.create 16 in
          List.iter
            (fun o ->
              List.iter
                (fun mid ->
                  Hashtbl.replace hops mid ();
                  List.iter
                    (fun i -> Hashtbl.replace hops i ())
                    (Graph.succ t.graph mid))
                (Graph.succ t.graph o))
            outs;
          hops
        end
      in
      let r = (port_nodes t `In n, reach) in
      Hashtbl.add memo n.path r;
      r
  in
  let flows_to src dst =
    let _, reach = reach_of src and ins, _ = reach_of dst in
    List.exists (Hashtbl.mem reach) ins
  in
  fun a b -> nested a b || flows_to a b || flows_to b a

(** Direct dependence: one instance's output is wired (possibly through
    the fabric of its parent's continuous assignments, i.e. one hop of
    the dataflow graph) straight into the other's input. This is the
    default notion of "independent modules" for multi-module redaction:
    modules whose only interaction passes through third-party logic can
    still share an eFPGA, since each keeps its own GPIO connections. *)
let instances_directly_connected (t : t) : V.Design.tree -> V.Design.tree -> bool
    =
  dependence t ~transitive:false

(** Transitive dependence: any dataflow path connects the two instances,
    even through registers and unrelated logic. Two instances can share
    an eFPGA only when independent, i.e. this returns [false]. *)
let instances_dependent (t : t) : V.Design.tree -> V.Design.tree -> bool =
  dependence t ~transitive:true
