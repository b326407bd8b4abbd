(** Elaboration: resolves parameters and ranges to integers, specializes
    parameterized modules, and produces a resolved design ready for
    analysis and synthesis.

    Parameter references inside expressions are substituted by their
    numeric values, so downstream passes never see a parameter. *)

module Smap = Map.Make (String)

type eport = { pname : string; dir : Ast.direction; width : int }

type enet = { nname : string; nwidth : int; nkind : Ast.net_kind }

type einstance = {
  ei_name : string;
  ei_module : string;  (* specialized module name *)
  ei_orig_module : string;
  (* bindings in callee port order: (port name, connected expression) *)
  ei_bindings : (string * Ast.expr option) list;
  ei_loc : Loc.t;
}

type emodule = {
  em_name : string;        (* possibly specialized, e.g. adder$W=16 *)
  em_orig_name : string;
  em_ports : eport list;
  em_nets : enet list;     (* includes ports *)
  em_assigns : (Ast.expr * Ast.expr) list;
  em_always : (Ast.sensitivity * Ast.stmt list) list;
  em_instances : einstance list;
  em_params : (string * int) list;
}

type design = {
  d_top : string;
  d_modules : emodule Smap.t;  (* keyed by specialized name *)
}

let find_emodule design name : emodule =
  match Smap.find_opt name design.d_modules with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "no module named %s" name)

let net_width (m : emodule) name : int =
  match List.find_opt (fun n -> n.nname = name) m.em_nets with
  | Some n -> n.nwidth
  | None -> invalid_arg (Printf.sprintf "module %s: unknown net %s" m.em_name name)

(* ---------- constant evaluation ---------- *)

let rec eval_const env (e : Ast.expr) : int =
  let int_of_bool b = if b then 1 else 0 in
  match e with
  | Ast.Num { value; _ } -> value
  | Ast.Ident name -> (
    match Smap.find_opt name env with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "not a constant: %s" name))
  | Ast.Unary (op, a) -> (
    let va = eval_const env a in
    match op with
    | Ast.Unot -> lnot va
    | Ast.Ulognot -> int_of_bool (va = 0)
    | Ast.Uneg -> -va
    | Ast.Uplus -> va
    | Ast.Ured_and | Ast.Ured_or | Ast.Ured_xor | Ast.Ured_nand | Ast.Ured_nor
    | Ast.Ured_xnor ->
      invalid_arg "reduction operators are not constant-foldable here")
  | Ast.Binary (op, a, b) -> (
    let va = eval_const env a and vb = eval_const env b in
    match op with
    | Ast.Badd -> va + vb
    | Ast.Bsub -> va - vb
    | Ast.Bmul -> va * vb
    | Ast.Bdiv -> va / vb
    | Ast.Bmod -> va mod vb
    | Ast.Bpow ->
      let rec pow acc n = if n <= 0 then acc else pow (acc * va) (n - 1) in
      pow 1 vb
    | Ast.Band -> va land vb
    | Ast.Bor -> va lor vb
    | Ast.Bxor -> va lxor vb
    | Ast.Bxnor -> lnot (va lxor vb)
    | Ast.Blogand -> int_of_bool (va <> 0 && vb <> 0)
    | Ast.Blogor -> int_of_bool (va <> 0 || vb <> 0)
    | Ast.Beq | Ast.Bceq -> int_of_bool (va = vb)
    | Ast.Bneq | Ast.Bcneq -> int_of_bool (va <> vb)
    | Ast.Blt -> int_of_bool (va < vb)
    | Ast.Ble -> int_of_bool (va <= vb)
    | Ast.Bgt -> int_of_bool (va > vb)
    | Ast.Bge -> int_of_bool (va >= vb)
    | Ast.Bshl -> va lsl vb
    | Ast.Bshr -> va lsr vb
    | Ast.Bashr -> va asr vb)
  | Ast.Ternary (c, a, b) ->
    if eval_const env c <> 0 then eval_const env a else eval_const env b
  | Ast.Bit_select _ | Ast.Part_select _ | Ast.Concat _ | Ast.Repeat _ ->
    invalid_arg "unsupported constant expression"

let eval_range env = function
  | None -> 1
  | Some (msb, lsb) ->
    let m = eval_const env msb and l = eval_const env lsb in
    if m < l then invalid_arg "descending ranges [lsb:msb] are not supported";
    m - l + 1

(* ---------- parameter substitution ---------- *)

let rec subst_expr env (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.Ident name -> (
    match Smap.find_opt name env with
    | Some v -> Ast.Num { width = None; value = v }
    | None -> e)
  | Ast.Num _ -> e
  | Ast.Unary (op, a) -> Ast.Unary (op, subst_expr env a)
  | Ast.Binary (op, a, b) -> Ast.Binary (op, subst_expr env a, subst_expr env b)
  | Ast.Ternary (c, a, b) ->
    Ast.Ternary (subst_expr env c, subst_expr env a, subst_expr env b)
  | Ast.Bit_select (s, i) -> Ast.Bit_select (s, fold_const env i)
  | Ast.Part_select (s, m, l) ->
    Ast.Part_select (s, fold_const env m, fold_const env l)
  | Ast.Concat es -> Ast.Concat (List.map (subst_expr env) es)
  | Ast.Repeat (n, es) ->
    Ast.Repeat (fold_const env n, List.map (subst_expr env) es)

(* fold to a constant when possible (select bounds and replication counts
   are usually parameter expressions); otherwise substitute and leave the
   expression for synthesis to handle (e.g. variable bit selects) *)
and fold_const env (e : Ast.expr) : Ast.expr =
  match eval_const env e with
  | v -> Ast.Num { width = None; value = v }
  | exception Invalid_argument _ -> subst_expr env e

let rec subst_stmt env (s : Ast.stmt) : Ast.stmt =
  match s with
  | Ast.Blocking (l, r) -> Ast.Blocking (subst_expr env l, subst_expr env r)
  | Ast.Nonblocking (l, r) -> Ast.Nonblocking (subst_expr env l, subst_expr env r)
  | Ast.If (c, t, e) ->
    Ast.If (subst_expr env c, List.map (subst_stmt env) t, List.map (subst_stmt env) e)
  | Ast.Case (subj, arms, dflt) ->
    Ast.Case
      ( subst_expr env subj,
        List.map
          (fun (labels, body) ->
            (List.map (subst_expr env) labels, List.map (subst_stmt env) body))
          arms,
        Option.map (List.map (subst_stmt env)) dflt )

(* ---------- elaboration proper ---------- *)

type ctx = {
  ast : Ast.design;
  mutable done_modules : emodule Smap.t;
}

let specialized_name base overrides =
  if overrides = [] then base
  else
    let parts =
      List.map (fun (n, v) -> Printf.sprintf "%s_%d" n v) overrides
    in
    base ^ "$" ^ String.concat "$" parts

(* Gather declared parameter defaults from a module body. *)
let module_params (m : Ast.module_decl) : (string * Ast.expr) list =
  List.concat_map
    (function
      | Ast.Param_decl (_local, assigns) -> assigns
      | Ast.Port_decl _ | Ast.Net_decl _ | Ast.Assign _ | Ast.Always _
      | Ast.Instance _ -> [])
    m.Ast.mod_items

let rec elaborate_module ctx (m : Ast.module_decl)
    (overrides : (string * int) list) : emodule =
  let sname = specialized_name m.Ast.mod_name overrides in
  match Smap.find_opt sname ctx.done_modules with
  | Some em -> em
  | None ->
    (* 1. resolve parameters: defaults evaluated left-to-right, overrides win *)
    let env =
      List.fold_left
        (fun env (name, dflt) ->
          let v =
            match List.assoc_opt name overrides with
            | Some v -> v
            | None -> eval_const env dflt
          in
          Smap.add name v env)
        Smap.empty (module_params m)
    in
    let params = Smap.bindings env in
    (* 2. walk items *)
    let ports = ref [] and nets = ref [] in
    let assigns = ref [] and always = ref [] and instances = ref [] in
    let add_net name width kind =
      match List.find_opt (fun n -> n.nname = name) !nets with
      | Some existing ->
        (* a reg re-declaration of an output port upgrades its kind *)
        if kind = Ast.Reg && existing.nkind = Ast.Wire then
          nets :=
            { existing with nkind = Ast.Reg }
            :: List.filter (fun n -> n.nname <> name) !nets
      | None -> nets := { nname = name; nwidth = width; nkind = kind } :: !nets
    in
    List.iter
      (fun item ->
        match item with
        | Ast.Port_decl (dir, kind, range, names) ->
          let width = eval_range env range in
          List.iter
            (fun name ->
              ports := { pname = name; dir; width } :: !ports;
              add_net name width kind)
            names
        | Ast.Net_decl (kind, range, names) ->
          let width = eval_range env range in
          List.iter (fun name -> add_net name width kind) names
        | Ast.Param_decl _ -> ()
        | Ast.Assign (lhs, rhs) ->
          assigns := (subst_expr env lhs, subst_expr env rhs) :: !assigns
        | Ast.Always (sens, body) ->
          always := (sens, List.map (subst_stmt env) body) :: !always
        | Ast.Instance inst -> instances := inst :: !instances)
      m.Ast.mod_items;
    let ports = List.rev !ports in
    (* order ports by the header list when present *)
    let ports =
      match m.Ast.mod_ports with
      | [] -> ports
      | order ->
        List.filter_map
          (fun name -> List.find_opt (fun p -> p.pname = name) ports)
          order
    in
    (* 3. elaborate instances (recursively specializing callees) *)
    let elaborated_instances =
      List.rev_map (elaborate_instance ctx env) !instances
    in
    let em =
      { em_name = sname; em_orig_name = m.Ast.mod_name; em_ports = ports;
        em_nets = List.rev !nets; em_assigns = List.rev !assigns;
        em_always = List.rev !always; em_instances = elaborated_instances;
        em_params = params }
    in
    ctx.done_modules <- Smap.add sname em ctx.done_modules;
    em

and elaborate_instance ctx env (inst : Ast.instance) : einstance =
  let callee =
    match Ast.find_module ctx.ast inst.Ast.inst_module with
    | Some m -> m
    | None ->
      Loc.error inst.Ast.inst_loc "unknown module '%s'" inst.Ast.inst_module
  in
  let callee_params = module_params callee in
  let overrides =
    List.mapi
      (fun i (name_opt, value_expr) ->
        let name =
          match name_opt with
          | Some n -> n
          | None -> (
            match List.nth_opt callee_params i with
            | Some (n, _) -> n
            | None ->
              Loc.error inst.Ast.inst_loc "too many parameter overrides")
        in
        (name, eval_const env value_expr))
      inst.Ast.inst_params
  in
  let em = elaborate_module ctx callee overrides in
  (* map port bindings to callee port order *)
  let positional = List.for_all (fun b -> b.Ast.port_name = None) inst.Ast.inst_ports in
  let bindings =
    if positional && inst.Ast.inst_ports <> [] then
      List.mapi
        (fun i (b : Ast.port_binding) ->
          match List.nth_opt em.em_ports i with
          | Some p -> (p.pname, Option.map (subst_expr env) b.Ast.port_expr)
          | None -> Loc.error inst.Ast.inst_loc "too many port connections")
        inst.Ast.inst_ports
    else
      List.map
        (fun (p : eport) ->
          let conn =
            List.find_opt (fun b -> b.Ast.port_name = Some p.pname) inst.Ast.inst_ports
          in
          match conn with
          | Some b -> (p.pname, Option.map (subst_expr env) b.Ast.port_expr)
          | None -> (p.pname, None))
        em.em_ports
  in
  { ei_name = inst.Ast.inst_name; ei_module = em.em_name;
    ei_orig_module = inst.Ast.inst_module; ei_bindings = bindings;
    ei_loc = inst.Ast.inst_loc }

(** Pick the top module: the unique module never instantiated by another.
    Raises [Invalid_argument] when this is ambiguous. *)
let detect_top (d : Ast.design) : string =
  let instantiated =
    List.concat_map
      (fun m ->
        List.filter_map
          (function
            | Ast.Instance i -> Some i.Ast.inst_module
            | Ast.Port_decl _ | Ast.Net_decl _ | Ast.Param_decl _ | Ast.Assign _
            | Ast.Always _ -> None)
          m.Ast.mod_items)
      d.Ast.modules
  in
  let roots =
    List.filter (fun m -> not (List.mem m.Ast.mod_name instantiated)) d.Ast.modules
  in
  match roots with
  | [ m ] -> m.Ast.mod_name
  | [] -> invalid_arg "no top module (instantiation cycle?)"
  | ms ->
    invalid_arg
      (Printf.sprintf "ambiguous top module: %s"
         (String.concat ", " (List.map (fun m -> m.Ast.mod_name) ms)))

(** Elaborate a parsed design. [top] defaults to the unique root module. *)
let elaborate ?top (d : Ast.design) : design =
  let top_name = match top with Some t -> t | None -> detect_top d in
  let ctx = { ast = d; done_modules = Smap.empty } in
  let top_module =
    match Ast.find_module d top_name with
    | Some m -> m
    | None -> invalid_arg (Printf.sprintf "no module named %s" top_name)
  in
  let _ = elaborate_module ctx top_module [] in
  { d_top = top_name; d_modules = ctx.done_modules }

(** Total I/O pin count of a module: the sum of its port widths. This is
    the structural metric ALICE's filtering phase checks against the
    fabric I/O limit. *)
let io_pin_count (m : emodule) : int =
  List.fold_left (fun acc p -> acc + p.width) 0 m.em_ports
