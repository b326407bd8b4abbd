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

let find_tree_node (design : V.Elaborate.design) (path : string) : V.Design.tree =
  let root = V.Design.instance_tree design in
  let rec find (node : V.Design.tree) =
    if node.path = path then Some node else List.find_map find node.children
  in
  match find root with
  | Some node -> node
  | None -> fail "no instance at path %s" path

(* instance names along the way from [ancestor] down to [descendant]
   (exclusive of the ancestor itself) *)
let chain_between ~(ancestor : string) ~(descendant : string) : string list =
  if ancestor = descendant then []
  else begin
    let pre = ancestor ^ "." in
    let n = String.length pre in
    if String.length descendant <= n || String.sub descendant 0 n <> pre then
      fail "%s is not an ancestor of %s" ancestor descendant;
    String.split_on_char '.' (String.sub descendant n (String.length descendant - n))
  end

(* ---------- per-module accumulated edits ---------- *)

type edits = {
  mutable remove_instances : string list;
  mutable extra_ports : V.Ast.item list;   (* Port_decl items *)
  mutable extra_port_names : string list;  (* for the header list *)
  mutable extra_items : V.Ast.item list;   (* assigns, wires, instances *)
  (* named bindings to append to an existing instance, keyed by name *)
  mutable extra_bindings : (string * V.Ast.port_binding) list;
}

let get_edits table module_name =
  match Hashtbl.find_opt table module_name with
  | Some e -> e
  | None ->
    let e =
      { remove_instances = []; extra_ports = []; extra_port_names = [];
        extra_items = []; extra_bindings = [] }
    in
    Hashtbl.add table module_name e;
    e

(* ---------- AST lookups ---------- *)

let ast_module (ast : V.Ast.design) name : V.Ast.module_decl =
  match V.Ast.find_module ast name with
  | Some m -> m
  | None -> fail "no AST module %s" name

let module_of_path (design : V.Elaborate.design) (path : string) : V.Elaborate.emodule =
  V.Elaborate.find_emodule design (find_tree_node design path).module_name

(* port bindings of an AST instance, keyed by callee port name *)
let ast_bindings (inst : V.Ast.instance) (callee : V.Elaborate.emodule) :
    (string * V.Ast.expr option) list =
  let positional =
    inst.V.Ast.inst_ports <> []
    && List.for_all (fun (b : V.Ast.port_binding) -> b.port_name = None)
         inst.V.Ast.inst_ports
  in
  if positional then
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

let zero_expr width =
  if width = 1 then V.Ast.Num { width = Some 1; value = 0 }
  else V.Ast.Repeat (V.Ast.num width, [ V.Ast.Num { width = Some 1; value = 0 } ])

(* ---------- site construction ---------- *)

(* Route one member-port signal from the member's parent module up to the
   insertion module, punching forwarding ports through every level.
   Returns the expression to use inside the insertion module. *)
let punch_signal (design : V.Elaborate.design) edits_table
    ~(insertion_path : string) ~(member_parent_path : string)
    ~(signal_name : string) ~(width : int) ~(dir : V.Ast.direction)
    ~(local_expr : V.Ast.expr option) : V.Ast.expr =
  let chain = chain_between ~ancestor:insertion_path ~descendant:member_parent_path in
  if chain = [] then
    (* same module: use the original connection directly *)
    match (local_expr, dir) with
    | Some e, _ -> e
    | None, V.Ast.Input -> zero_expr width
    | None, (V.Ast.Output | V.Ast.Inout) -> V.Ast.Ident signal_name
    (* caller declares the scratch wire *)
  else begin
    (* the member parent gets the boundary port and the bridging assign *)
    let parent_em = module_of_path design member_parent_path in
    let parent_edits = get_edits edits_table parent_em.V.Elaborate.em_orig_name in
    let port_dir =
      match dir with
      | V.Ast.Input -> V.Ast.Output  (* data flows out toward the eFPGA *)
      | V.Ast.Output -> V.Ast.Input
      | V.Ast.Inout -> fail "inout ports cannot be redacted"
    in
    parent_edits.extra_ports <-
      V.Ast.Port_decl (port_dir, V.Ast.Wire, range_of_width width, [ signal_name ])
      :: parent_edits.extra_ports;
    parent_edits.extra_port_names <- signal_name :: parent_edits.extra_port_names;
    (match (local_expr, dir) with
    | Some e, V.Ast.Input ->
      parent_edits.extra_items <-
        V.Ast.Assign (V.Ast.Ident signal_name, e) :: parent_edits.extra_items
    | Some e, (V.Ast.Output | V.Ast.Inout) ->
      parent_edits.extra_items <-
        V.Ast.Assign (e, V.Ast.Ident signal_name) :: parent_edits.extra_items
    | None, V.Ast.Input ->
      parent_edits.extra_items <-
        V.Ast.Assign (V.Ast.Ident signal_name, zero_expr width)
        :: parent_edits.extra_items
    | None, (V.Ast.Output | V.Ast.Inout) -> ());
    (* intermediate levels forward the port and bind it on the child *)
    let rec thread (level_path : string) (remaining : string list) =
      match remaining with
      | [] -> ()
      | child_inst :: rest ->
        let level_em = module_of_path design level_path in
        let level_edits = get_edits edits_table level_em.V.Elaborate.em_orig_name in
        let binding =
          { V.Ast.port_name = Some signal_name;
            port_expr = Some (V.Ast.Ident signal_name) }
        in
        level_edits.extra_bindings <-
          (child_inst, binding) :: level_edits.extra_bindings;
        if level_path = insertion_path then
          (* the insertion module declares a plain wire *)
          level_edits.extra_items <-
            V.Ast.Net_decl (V.Ast.Wire, range_of_width width, [ signal_name ])
            :: level_edits.extra_items
        else begin
          level_edits.extra_ports <-
            V.Ast.Port_decl
              ( (match dir with
                | V.Ast.Input -> V.Ast.Output
                | V.Ast.Output | V.Ast.Inout -> V.Ast.Input),
                V.Ast.Wire, range_of_width width, [ signal_name ] )
            :: level_edits.extra_ports;
          level_edits.extra_port_names <-
            signal_name :: level_edits.extra_port_names
        end;
        thread (level_path ^ "." ^ child_inst) rest
    in
    thread insertion_path chain;
    V.Ast.Ident signal_name
  end

let sanitize name = String.map (fun c -> if c = '.' then '_' else c) name

(* Declare [signal] as a [dir] port of the insertion module and thread it
   through every ancestor so it surfaces as a chip pin: the fabric
   configuration interface of the final design. *)
let expose_cfg_pin (design : V.Elaborate.design) edits_table
    ~(insertion_path : string) ~(signal : string) ~(dir : V.Ast.direction) :
    unit =
  let top_path = design.V.Elaborate.d_top in
  let rec thread level_path remaining =
    let em = module_of_path design level_path in
    let edits = get_edits edits_table em.V.Elaborate.em_orig_name in
    edits.extra_ports <-
      V.Ast.Port_decl (dir, V.Ast.Wire, None, [ signal ]) :: edits.extra_ports;
    edits.extra_port_names <- signal :: edits.extra_port_names;
    match remaining with
    | [] -> ()
    | child :: rest ->
      edits.extra_bindings <-
        ( child,
          { V.Ast.port_name = Some signal;
            port_expr = Some (V.Ast.Ident signal) } )
        :: edits.extra_bindings;
      thread (level_path ^ "." ^ child) rest
  in
  thread top_path (chain_between ~ancestor:top_path ~descendant:insertion_path)

let build_site (design : V.Elaborate.design) (ast : V.Ast.design) edits_table
    (index : int) (efpga : Selection.efpga_impl) : efpga_site =
  let members = efpga.Selection.cluster.Clustering.members in
  let parents = List.map (fun (m : V.Design.tree) -> parent_path m.path) members in
  let insertion_path =
    insertion_point (List.map (fun (m : V.Design.tree) -> m.path) members)
  in
  let insertion_em = module_of_path design insertion_path in
  let insertion_edits = get_edits edits_table insertion_em.V.Elaborate.em_orig_name in
  let efpga_name = Printf.sprintf "efpga_%d" index in
  let in_parts = ref [] and out_parts = ref [] in
  let emit_members = ref [] in
  List.iter2
    (fun (m : V.Design.tree) member_parent_path ->
      let callee = V.Elaborate.find_emodule design m.module_name in
      let parent_em = module_of_path design member_parent_path in
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
            punch_signal design edits_table ~insertion_path
              ~member_parent_path ~signal_name ~width:p.width ~dir:p.dir
              ~local_expr:conn
          in
          match p.dir with
          | V.Ast.Input ->
            in_ports := (p.pname, p.width) :: !in_ports;
            in_parts := top_expr :: !in_parts
          | V.Ast.Output ->
            out_ports := (p.pname, p.width) :: !out_ports;
            out_parts := top_expr :: !out_parts
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
  let emit_members = List.rev !emit_members in
  let sum proj =
    List.fold_left
      (fun acc m -> acc + List.fold_left (fun a (_, w) -> a + w) 0 (proj m))
      0 emit_members
  in
  let gpio_in_width = sum (fun (m : F.Emit.member) -> m.F.Emit.in_ports) in
  let gpio_out_width = sum (fun (m : F.Emit.member) -> m.F.Emit.out_ports) in
  (* concatenations are MSB-first; the accumulated (reversed) part lists
     are already MSB-first relative to the LSB-first GPIO packing *)
  let instance_item =
    V.Ast.Instance
      { V.Ast.inst_module = efpga_name;
        inst_name = "u_" ^ efpga_name;
        inst_params = [];
        inst_ports =
          [ { V.Ast.port_name = Some "cfg_clk"; port_expr = Some (V.Ast.Ident (efpga_name ^ "_cfg_clk")) };
            { V.Ast.port_name = Some "cfg_en"; port_expr = Some (V.Ast.Ident (efpga_name ^ "_cfg_en")) };
            { V.Ast.port_name = Some "cfg_in"; port_expr = Some (V.Ast.Ident (efpga_name ^ "_cfg_in")) };
            { V.Ast.port_name = Some "cfg_out"; port_expr = Some (V.Ast.Ident (efpga_name ^ "_cfg_out")) };
            { V.Ast.port_name = Some "gpio_in"; port_expr = Some (V.Ast.Concat !in_parts) };
            { V.Ast.port_name = Some "gpio_out"; port_expr = Some (V.Ast.Concat !out_parts) } ];
        inst_loc = V.Loc.none }
  in
  insertion_edits.extra_items <- instance_item :: insertion_edits.extra_items;
  (* the configuration interface surfaces as chip pins *)
  List.iter
    (fun (suffix, dir) ->
      expose_cfg_pin design edits_table ~insertion_path
        ~signal:(efpga_name ^ suffix) ~dir)
    [ ("_cfg_clk", V.Ast.Input); ("_cfg_en", V.Ast.Input);
      ("_cfg_in", V.Ast.Input); ("_cfg_out", V.Ast.Output) ];
  let bitstream =
    F.Bitstream.generate efpga.Selection.impl.F.Size_search.placement
      efpga.Selection.mapped
  in
  { efpga_name; insertion_point = insertion_path; gpio_in_width;
    gpio_out_width; members = emit_members; bitstream }

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
            else if
              i.V.Ast.inst_ports <> []
              && List.for_all
                   (fun (b : V.Ast.port_binding) -> b.port_name = None)
                   i.V.Ast.inst_ports
            then
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
  { m with
    V.Ast.mod_ports = m.V.Ast.mod_ports @ List.rev edits.extra_port_names;
    V.Ast.mod_items =
      List.rev edits.extra_ports @ kept_items @ List.rev edits.extra_items }

(** Generate the redacted design for a selected solution. *)
let run ?(view = Programmed) (design : V.Elaborate.design) (ast : V.Ast.design)
    (solution : Selection.solution) : redacted =
  let edits_table : (string, edits) Hashtbl.t = Hashtbl.create 8 in
  let sites =
    List.mapi (fun i e -> build_site design ast edits_table i e)
      solution.Selection.efpgas
  in
  (* a module definition disappears from the opaque view only when every
     one of its instances was redacted; a surviving instance still needs
     the definition *)
  let redacted_per_module = Hashtbl.create 8 in
  List.iter
    (fun site ->
      List.iter
        (fun (m : F.Emit.member) ->
          let k = m.F.Emit.member_module in
          Hashtbl.replace redacted_per_module k
            (1 + Option.value (Hashtbl.find_opt redacted_per_module k) ~default:0))
        site.members)
    sites;
  let removed_module_names =
    Hashtbl.fold
      (fun orig_name redacted acc ->
        let total =
          List.length
            (List.filter
               (fun (n : V.Design.tree) -> n.orig_module_name = orig_name)
               (V.Design.all_instances design))
        in
        if redacted >= total then orig_name :: acc else acc)
      redacted_per_module []
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
  Buffer.add_string buf (V.Pp.design_to_string { V.Ast.modules = surviving_modules });
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
            ~members:site.members
      in
      Buffer.add_string buf "\n";
      Buffer.add_string buf body)
    sites solution.Selection.efpgas;
  { verilog = Buffer.contents buf; sites; removed_modules = removed_module_names }
