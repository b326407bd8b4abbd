(** Redacted-design generation (Section 6, final step): replace the
    selected instances with eFPGA instances, re-route their signals to
    the fabric GPIOs, and regenerate the Verilog of the whole system.

    The insertion point of each eFPGA is the deepest common ancestor of
    its members' parents ({!insertion_point}). Members living
    below the insertion point have their connections re-routed upward by
    port punching: every module on the path gains forwarding ports, the
    member's former connections become continuous assignments to/from
    those ports, and the insertion-point module wires them into the
    fabric GPIO vectors — the "signals from the original instances are
    re-routed to the corresponding eFPGA instance" step of the paper.

    Three views can be emitted: [Opaque] (what the foundry receives:
    member module definitions deleted, fabric stubs inserted),
    [Structural] (the foundry view with real configurable fabrics —
    LUT arrays behind a configuration scan chain; functionality appears
    only once the returned bitstreams are shifted in) and [Programmed]
    (bitstream pre-loaded: behaviorally equivalent to the original
    design, used for verification). *)

module V = Alice_verilog
module F = Alice_fabric

exception Redaction_error of string

let fail fmt = Format.kasprintf (fun m -> raise (Redaction_error m)) fmt

type view = Opaque | Programmed | Structural

type efpga_site = {
  efpga_name : string;
  insertion_point : string;    (* instance path of the fabric's parent *)
  gpio_in_width : int;
  gpio_out_width : int;
  members : F.Emit.member list;
  bitstream : bool array;      (* the secret configuration of this fabric *)
}

type redacted = {
  verilog : string;            (* the full regenerated design *)
  sites : efpga_site list;
  removed_modules : string list;
}

(* ---------- hierarchy helpers ---------- *)

let parent_path (path : string) : string =
  match String.rindex_opt path '.' with
  | Some i -> String.sub path 0 i
  | None -> fail "instance %s has no parent" path

(* The hierarchy is a tree, so its dominator tree is itself and the
   nearest common dominator is a common path prefix, by segments. *)
let insertion_point (members : string list) : string =
  let rec common a b =
    match (a, b) with
    | x :: a, y :: b when x = y -> x :: common a b
    | _ -> []
  in
  match List.map (fun p -> String.split_on_char '.' (parent_path p)) members with
  | [] -> invalid_arg "Redact.insertion_point: no members"
  | first :: rest -> String.concat "." (List.fold_left common first rest)

(* the instance tree indexed by path, built once per run *)
let index_tree (design : V.Elaborate.design) : (string, V.Design.tree) Hashtbl.t =
  let index = Hashtbl.create 64 in
  V.Design.fold_tree
    (fun () (n : V.Design.tree) -> Hashtbl.replace index n.path n)
    () (V.Design.instance_tree design);
  index

(* ---------- per-module accumulated edits ---------- *)

type edits = {
  mutable remove_instances : string list;
  (* ports to append, each a direction, range and name *)
  mutable extra_ports : (V.Ast.direction * V.Ast.range option * string) list;
  mutable extra_items : V.Ast.item list;   (* assigns, wires, instances *)
  (* named bindings to append to an existing instance, keyed by name *)
  mutable extra_bindings : (string * V.Ast.port_binding) list;
}

let get_edits table module_name =
  match Hashtbl.find_opt table module_name with
  | Some e -> e
  | None ->
    let e =
      { remove_instances = []; extra_ports = []; extra_items = [];
        extra_bindings = [] }
    in
    Hashtbl.add table module_name e;
    e

(* ---------- AST lookups ---------- *)

let ast_module (ast : V.Ast.design) name : V.Ast.module_decl =
  match V.Ast.find_module ast name with
  | Some m -> m
  | None -> fail "no AST module %s" name

let tree_node index (path : string) : V.Design.tree =
  match Hashtbl.find_opt index path with
  | Some node -> node
  | None -> fail "no instance at path %s" path

let module_of_path (design : V.Elaborate.design) index (path : string) :
    V.Elaborate.emodule =
  V.Elaborate.find_emodule design (tree_node index path).module_name

(* every connection of the instance is positional *)
let positional (inst : V.Ast.instance) =
  inst.V.Ast.inst_ports <> []
  && List.for_all (fun (b : V.Ast.port_binding) -> b.port_name = None)
       inst.V.Ast.inst_ports

(* port bindings of an AST instance, keyed by callee port name *)
let ast_bindings (inst : V.Ast.instance) (callee : V.Elaborate.emodule) :
    (string * V.Ast.expr option) list =
  if positional inst then
    List.mapi
      (fun i (b : V.Ast.port_binding) ->
        match List.nth_opt callee.V.Elaborate.em_ports i with
        | Some p -> (p.pname, b.port_expr)
        | None -> fail "instance %s: too many connections" inst.V.Ast.inst_name)
      inst.V.Ast.inst_ports
  else
    List.map
      (fun (p : V.Elaborate.eport) ->
        match
          List.find_opt
            (fun (b : V.Ast.port_binding) -> b.port_name = Some p.pname)
            inst.V.Ast.inst_ports
        with
        | Some b -> (p.pname, b.port_expr)
        | None -> (p.pname, None))
      callee.V.Elaborate.em_ports

let find_ast_instance (m : V.Ast.module_decl) (inst_name : string) : V.Ast.instance =
  match
    List.find_map
      (function
        | V.Ast.Instance i when i.V.Ast.inst_name = inst_name -> Some i
        | V.Ast.Instance _ | V.Ast.Port_decl _ | V.Ast.Net_decl _
        | V.Ast.Param_decl _ | V.Ast.Assign _ | V.Ast.Always _ -> None)
      m.V.Ast.mod_items
  with
  | Some i -> i
  | None -> fail "instance %s not found in module %s" inst_name m.V.Ast.mod_name

let range_of_width w : V.Ast.range option =
  if w <= 1 then None else Some (V.Ast.num (w - 1), V.Ast.num 0)

let named_binding name expr = { V.Ast.port_name = Some name; port_expr = Some expr }

(* the fabric configuration interface, surfaced as chip pins *)
let cfg_pins =
  [ ("cfg_clk", V.Ast.Input); ("cfg_en", V.Ast.Input); ("cfg_in", V.Ast.Input);
    ("cfg_out", V.Ast.Output) ]

let zero_expr width =
  if width = 1 then V.Ast.Num { width = Some 1; value = 0 }
  else V.Ast.Repeat (V.Ast.num width, [ V.Ast.Num { width = Some 1; value = 0 } ])

(* ---------- site construction ---------- *)

(* Walk up from the instance at [path] to its ancestor at [upto]:
   [declare] declares [signal] in each level's module, and every level
   above [path] binds it by name on the child instance below. No module
   is its own ancestor, so each level edits a different module and the
   direction of the walk does not show in the output. *)
let thread design index edits_table ~(path : string) ~(upto : string)
    ~(signal : string) ~(declare : string -> edits -> unit) : unit =
  let edits_at path =
    get_edits edits_table (module_of_path design index path).V.Elaborate.em_orig_name
  in
  let rec walk path =
    declare path (edits_at path);
    if path <> upto then begin
      let parent = parent_path path in
      let edits = edits_at parent in
      edits.extra_bindings <-
        ((tree_node index path).inst_name, named_binding signal (V.Ast.Ident signal))
        :: edits.extra_bindings;
      walk parent
    end
  in
  walk path

(* Route one member-port signal from the member's parent module up to the
   insertion module, punching forwarding ports through every level.
   Returns the expression to use inside the insertion module. *)
let punch_signal design index edits_table ~(insertion_path : string)
    ~(member_parent_path : string) ~(signal_name : string) ~(width : int)
    ~(dir : V.Ast.direction) ~(local_expr : V.Ast.expr option) : V.Ast.expr =
  if member_parent_path = insertion_path then
    (* same module: use the original connection directly *)
    match (local_expr, dir) with
    | Some e, _ -> e
    | None, V.Ast.Input -> zero_expr width
    | None, (V.Ast.Output | V.Ast.Inout) -> V.Ast.Ident signal_name
    (* caller declares the scratch wire *)
  else begin
    let port_dir =
      match dir with
      | V.Ast.Input -> V.Ast.Output  (* data flows out toward the eFPGA *)
      | V.Ast.Output -> V.Ast.Input
      | V.Ast.Inout -> fail "inout ports cannot be redacted"
    in
    let range = range_of_width width in
    thread design index edits_table ~path:member_parent_path ~upto:insertion_path
      ~signal:signal_name
      ~declare:(fun path edits ->
        if path = insertion_path then
          (* the insertion module declares a plain wire *)
          edits.extra_items <-
            V.Ast.Net_decl (V.Ast.Wire, range, [ signal_name ]) :: edits.extra_items
        else begin
          edits.extra_ports <- (port_dir, range, signal_name) :: edits.extra_ports;
          (* the member parent bridges the port to the former connection *)
          if path = member_parent_path then
            match (local_expr, dir) with
            | Some e, V.Ast.Input ->
              edits.extra_items <-
                V.Ast.Assign (V.Ast.Ident signal_name, e) :: edits.extra_items
            | Some e, (V.Ast.Output | V.Ast.Inout) ->
              edits.extra_items <-
                V.Ast.Assign (e, V.Ast.Ident signal_name) :: edits.extra_items
            | None, V.Ast.Input ->
              edits.extra_items <-
                V.Ast.Assign (V.Ast.Ident signal_name, zero_expr width)
                :: edits.extra_items
            | None, (V.Ast.Output | V.Ast.Inout) -> ()
        end);
    V.Ast.Ident signal_name
  end

let sanitize name = String.map (fun c -> if c = '.' then '_' else c) name

(* Declare [signal] as a [dir] port of the insertion module and thread it
   through every ancestor so it surfaces as a chip pin: the fabric
   configuration interface of the final design. *)
let expose_cfg_pin design index edits_table ~(insertion_path : string)
    ~(signal : string) ~(dir : V.Ast.direction) : unit =
  thread design index edits_table ~path:insertion_path
    ~upto:design.V.Elaborate.d_top ~signal ~declare:(fun _ edits ->
      edits.extra_ports <- (dir, None, signal) :: edits.extra_ports)

let build_site (design : V.Elaborate.design) index (ast : V.Ast.design)
    edits_table (site_index : int) (efpga : Selection.efpga_impl) : efpga_site =
  let members = efpga.Selection.cluster.Clustering.members in
  let parents = List.map (fun (m : V.Design.tree) -> parent_path m.path) members in
  let insertion_path =
    insertion_point (List.map (fun (m : V.Design.tree) -> m.path) members)
  in
  let insertion_em = module_of_path design index insertion_path in
  let insertion_edits = get_edits edits_table insertion_em.V.Elaborate.em_orig_name in
  let efpga_name = Printf.sprintf "efpga_%d" site_index in
  let in_parts = ref [] and out_parts = ref [] in
  let gpio_in_width = ref 0 and gpio_out_width = ref 0 in
  let emit_members = ref [] in
  List.iter2
    (fun (m : V.Design.tree) member_parent_path ->
      let callee = V.Elaborate.find_emodule design m.module_name in
      let parent_em = module_of_path design index member_parent_path in
      let parent_ast = ast_module ast parent_em.V.Elaborate.em_orig_name in
      let inst = find_ast_instance parent_ast m.inst_name in
      let parent_edits = get_edits edits_table parent_em.V.Elaborate.em_orig_name in
      parent_edits.remove_instances <-
        inst.V.Ast.inst_name :: parent_edits.remove_instances;
      let bindings = ast_bindings inst callee in
      let in_ports = ref [] and out_ports = ref [] in
      List.iter
        (fun (p : V.Elaborate.eport) ->
          let conn = List.assoc p.pname bindings in
          let signal_name =
            sanitize (Printf.sprintf "%s_%s_%s" efpga_name m.inst_name p.pname)
          in
          (* unconnected outputs at the insertion level need a scratch wire *)
          (match (conn, p.dir) with
          | None, (V.Ast.Output | V.Ast.Inout)
            when member_parent_path = insertion_path ->
            insertion_edits.extra_items <-
              V.Ast.Net_decl (V.Ast.Wire, range_of_width p.width, [ signal_name ])
              :: insertion_edits.extra_items
          | _ -> ());
          let top_expr =
            punch_signal design index edits_table ~insertion_path
              ~member_parent_path ~signal_name ~width:p.width ~dir:p.dir
              ~local_expr:conn
          in
          match p.dir with
          | V.Ast.Input ->
            in_ports := (p.pname, p.width) :: !in_ports;
            in_parts := top_expr :: !in_parts;
            gpio_in_width := !gpio_in_width + p.width
          | V.Ast.Output ->
            out_ports := (p.pname, p.width) :: !out_ports;
            out_parts := top_expr :: !out_parts;
            gpio_out_width := !gpio_out_width + p.width
          | V.Ast.Inout -> fail "inout ports cannot be redacted")
        callee.V.Elaborate.em_ports;
      emit_members :=
        { F.Emit.member_module = callee.V.Elaborate.em_orig_name;
          member_instance = m.inst_name;
          member_params = callee.V.Elaborate.em_params;
          in_ports = List.rev !in_ports;
          out_ports = List.rev !out_ports }
        :: !emit_members)
    members parents;
  (* concatenations are MSB-first; the accumulated (reversed) part lists
     are already MSB-first relative to the LSB-first GPIO packing *)
  let instance_item =
    V.Ast.Instance
      { V.Ast.inst_module = efpga_name;
        inst_name = "u_" ^ efpga_name;
        inst_params = [];
        inst_ports =
          List.map
            (fun (pin, _) -> named_binding pin (V.Ast.Ident (efpga_name ^ "_" ^ pin)))
            cfg_pins
          @ [ named_binding "gpio_in" (V.Ast.Concat !in_parts);
              named_binding "gpio_out" (V.Ast.Concat !out_parts) ];
        inst_loc = V.Loc.none }
  in
  insertion_edits.extra_items <- instance_item :: insertion_edits.extra_items;
  List.iter
    (fun (pin, dir) ->
      expose_cfg_pin design index edits_table ~insertion_path
        ~signal:(efpga_name ^ "_" ^ pin) ~dir)
    cfg_pins;
  let bitstream =
    F.Bitstream.generate efpga.Selection.impl.F.Size_search.placement
      efpga.Selection.mapped
  in
  { efpga_name; insertion_point = insertion_path; gpio_in_width = !gpio_in_width;
    gpio_out_width = !gpio_out_width; members = List.rev !emit_members; bitstream }

(* ---------- applying edits ---------- *)

let apply_edits (edits : edits) (m : V.Ast.module_decl) : V.Ast.module_decl =
  let kept_items =
    List.filter_map
      (fun item ->
        match item with
        | V.Ast.Instance i ->
          if List.mem i.V.Ast.inst_name edits.remove_instances then None
          else begin
            let extra =
              List.filter_map
                (fun (inst, b) -> if inst = i.V.Ast.inst_name then Some b else None)
                edits.extra_bindings
            in
            if extra = [] then Some item
            else if positional i then
              fail "instance %s uses positional connections; port punching \
                    requires named connections"
                i.V.Ast.inst_name
            else
              Some (V.Ast.Instance { i with V.Ast.inst_ports = i.V.Ast.inst_ports @ extra })
          end
        | V.Ast.Port_decl _ | V.Ast.Net_decl _ | V.Ast.Param_decl _
        | V.Ast.Assign _ | V.Ast.Always _ -> Some item)
      m.V.Ast.mod_items
  in
  let ports = List.rev edits.extra_ports in
  { m with
    V.Ast.mod_ports = m.V.Ast.mod_ports @ List.map (fun (_, _, name) -> name) ports;
    V.Ast.mod_items =
      List.map
        (fun (dir, range, name) -> V.Ast.Port_decl (dir, V.Ast.Wire, range, [ name ]))
        ports
      @ kept_items @ List.rev edits.extra_items }

(** Generate the redacted design for a selected solution. *)
let run ?(view = Programmed) (design : V.Elaborate.design) (ast : V.Ast.design)
    (solution : Selection.solution) : redacted =
  let edits_table : (string, edits) Hashtbl.t = Hashtbl.create 8 in
  let index = index_tree design in
  let sites =
    List.mapi (fun i e -> build_site design index ast edits_table i e)
      solution.Selection.efpgas
  in
  (* a module definition disappears from the opaque view only when every
     one of its instances was redacted; a surviving instance still needs
     the definition *)
  let redacted = Hashtbl.create 16 and kept = Hashtbl.create 16 in
  List.iter
    (fun (e : Selection.efpga_impl) ->
      List.iter
        (fun (m : V.Design.tree) -> Hashtbl.replace redacted m.path m.orig_module_name)
        e.Selection.cluster.Clustering.members)
    solution.Selection.efpgas;
  (* the index holds the root too, whose module is no member's *)
  Hashtbl.iter
    (fun path (n : V.Design.tree) ->
      if not (Hashtbl.mem redacted path) then Hashtbl.replace kept n.orig_module_name ())
    index;
  let removed_module_names =
    Hashtbl.fold
      (fun _ orig acc -> if Hashtbl.mem kept orig then acc else orig :: acc)
      redacted []
    |> List.sort_uniq compare
  in
  let hide_members = match view with
    | Opaque | Structural -> true
    | Programmed -> false
  in
  let surviving_modules =
    List.filter_map
      (fun (m : V.Ast.module_decl) ->
        if hide_members && List.mem m.V.Ast.mod_name removed_module_names then
          None
        else
          match Hashtbl.find_opt edits_table m.V.Ast.mod_name with
          | None -> Some m
          | Some edits -> Some (apply_edits edits m))
      ast.V.Ast.modules
  in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    "// Redacted design generated by ALICE; eFPGA bodies follow the design.\n\n";
  V.Pp.add_design buf { V.Ast.modules = surviving_modules };
  List.iter2
    (fun site (efpga : Selection.efpga_impl) ->
      let fabric = efpga.Selection.impl.F.Size_search.fabric in
      let body =
        match view with
        | Opaque ->
          F.Emit.opaque_wrapper ~name:site.efpga_name ~fabric
            ~gpio_in:site.gpio_in_width ~gpio_out:site.gpio_out_width
        | Structural ->
          F.Emit.structural_wrapper ~name:site.efpga_name
            ~placement:efpga.Selection.impl.F.Size_search.placement
            ~mapped:efpga.Selection.mapped
        | Programmed ->
          F.Emit.programmed_wrapper ~name:site.efpga_name ~fabric
            ~gpio_in:site.gpio_in_width ~gpio_out:site.gpio_out_width
            ~members:site.members
      in
      Buffer.add_string buf "\n";
      Buffer.add_string buf body)
    sites solution.Selection.efpgas;
  { verilog = Buffer.contents buf; sites; removed_modules = removed_module_names }
