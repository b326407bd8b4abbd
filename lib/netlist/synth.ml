(** RTL-to-gate synthesis: flattens an elaborated design into a
    {!Circuit.t} by bit-blasting expressions and symbolically executing
    always blocks.

    Conventions and restrictions:
    - one implicit clock domain; any always block with an edge event is a
      register bank, and asynchronous resets are folded into the D logic
      (cycle-accurate for every benchmark here, which never pulses reset
      mid-computation);
    - all arithmetic is unsigned;
    - combinational always blocks must assign each written variable on
      every path (no latches) — violations raise [Synthesis_error];
    - x/z values do not exist; unconnected inputs read constant 0. *)

module V = Alice_verilog
module Smap = Map.Make (String)

exception Synthesis_error of string

let fail fmt = Format.kasprintf (fun m -> raise (Synthesis_error m)) fmt

type state = {
  circuit : Circuit.t;
  design : V.Elaborate.design;
  vars : (string, Circuit.net array) Hashtbl.t;  (* "path/var" -> bit nets *)
  driven : (Circuit.net, unit) Hashtbl.t;
  mutable zero : Circuit.net option;  (* shared constant-0 net *)
  mutable one : Circuit.net option;
  (* structural hashing: (kind, inputs) -> existing output net *)
  gate_cache : (Circuit.gate_kind * int list, Circuit.net) Hashtbl.t;
}

let var_key path name = path ^ "/" ^ name

let const0 st =
  match st.zero with
  | Some n -> n
  | None ->
    let n = Circuit.const st.circuit false in
    st.zero <- Some n;
    n

let const1 st =
  match st.one with
  | Some n -> n
  | None ->
    let n = Circuit.const st.circuit true in
    st.one <- Some n;
    n

let var_nets st path name : Circuit.net array =
  match Hashtbl.find_opt st.vars (var_key path name) with
  | Some nets -> nets
  | None -> fail "%s: unknown variable %s" path name

(* mark a pre-allocated net as driven; duplicate drivers are an error *)
let drive_net st path (target : Circuit.net) (value : Circuit.net) =
  if Hashtbl.mem st.driven target then
    fail "%s: multiple drivers for net %d" path target;
  Hashtbl.add st.driven target ();
  Circuit.add_gate_with_output st.circuit ~path Circuit.Buf [| value |]
    ~output:target

let drive_dff st path (q : Circuit.net) (d : Circuit.net) =
  if Hashtbl.mem st.driven q then
    fail "%s: multiple drivers for register net %d" path q;
  Hashtbl.add st.driven q ();
  Circuit.add_dff_q st.circuit ~d ~q

(* ---------- width inference ---------- *)

let rec expr_width (em : V.Elaborate.emodule) (e : V.Ast.expr) : int =
  match e with
  | V.Ast.Ident name -> V.Elaborate.net_width em name
  | V.Ast.Num { width = Some w; _ } -> w
  | V.Ast.Num { width = None; _ } -> 32
  | V.Ast.Unary ((V.Ast.Unot | V.Ast.Uneg | V.Ast.Uplus), a) -> expr_width em a
  | V.Ast.Unary
      ( ( V.Ast.Ulognot | V.Ast.Ured_and | V.Ast.Ured_or | V.Ast.Ured_xor
        | V.Ast.Ured_nand | V.Ast.Ured_nor | V.Ast.Ured_xnor ),
        _ ) -> 1
  | V.Ast.Binary
      ( ( V.Ast.Badd | V.Ast.Bsub | V.Ast.Bmul | V.Ast.Bdiv | V.Ast.Bmod
        | V.Ast.Bpow | V.Ast.Band | V.Ast.Bor | V.Ast.Bxor | V.Ast.Bxnor ),
        a, b ) -> max (expr_width em a) (expr_width em b)
  | V.Ast.Binary
      ( ( V.Ast.Beq | V.Ast.Bneq | V.Ast.Bceq | V.Ast.Bcneq | V.Ast.Blt
        | V.Ast.Ble | V.Ast.Bgt | V.Ast.Bge | V.Ast.Blogand | V.Ast.Blogor ),
        _, _ ) -> 1
  | V.Ast.Binary ((V.Ast.Bshl | V.Ast.Bshr | V.Ast.Bashr), a, _) -> expr_width em a
  | V.Ast.Ternary (_, a, b) -> max (expr_width em a) (expr_width em b)
  | V.Ast.Bit_select _ -> 1
  | V.Ast.Part_select (_, msb, lsb) -> (
    match (msb, lsb) with
    | V.Ast.Num { value = m; _ }, V.Ast.Num { value = l; _ } -> m - l + 1
    | _ -> fail "part select bounds must be constants")
  | V.Ast.Concat es -> List.fold_left (fun acc e -> acc + expr_width em e) 0 es
  | V.Ast.Repeat (n, es) -> (
    match n with
    | V.Ast.Num { value; _ } ->
      value * List.fold_left (fun acc e -> acc + expr_width em e) 0 es
    | _ -> fail "replication count must be a constant")

(* ---------- bit-level operator construction ---------- *)

(* Constant folding and structural hashing at gate-construction time:
   zero-extension, shifts and multiplier partial products create large
   amounts of constant-fed logic that would otherwise survive to mapping. *)
let gate st path kind inputs =
  let z () = const0 st and o () = const1 st in
  let known n =
    if Some n = st.zero then Some false
    else if Some n = st.one then Some true
    else None
  in
  let fold () =
    match kind with
    | Circuit.Not -> (
      match known inputs.(0) with
      | Some b -> Some (if b then z () else o ())
      | None -> None)
    | Circuit.Buf -> Some inputs.(0)
    | Circuit.And -> (
      match (known inputs.(0), known inputs.(1)) with
      | Some false, _ | _, Some false -> Some (z ())
      | Some true, _ -> Some inputs.(1)
      | _, Some true -> Some inputs.(0)
      | None, None -> if inputs.(0) = inputs.(1) then Some inputs.(0) else None)
    | Circuit.Or -> (
      match (known inputs.(0), known inputs.(1)) with
      | Some true, _ | _, Some true -> Some (o ())
      | Some false, _ -> Some inputs.(1)
      | _, Some false -> Some inputs.(0)
      | None, None -> if inputs.(0) = inputs.(1) then Some inputs.(0) else None)
    | Circuit.Xor -> (
      match (known inputs.(0), known inputs.(1)) with
      | Some false, _ -> Some inputs.(1)
      | _, Some false -> Some inputs.(0)
      | Some true, Some true -> Some (z ())
      | _ -> if inputs.(0) = inputs.(1) then Some (z ()) else None)
    | Circuit.Xnor -> (
      match (known inputs.(0), known inputs.(1)) with
      | Some true, _ -> Some inputs.(1)
      | _, Some true -> Some inputs.(0)
      | Some false, Some false -> Some (o ())
      | _ -> if inputs.(0) = inputs.(1) then Some (o ()) else None)
    | Circuit.Mux -> (
      (* inputs = [sel; a; b], output = sel ? b : a *)
      match known inputs.(0) with
      | Some true -> Some inputs.(2)
      | Some false -> Some inputs.(1)
      | None ->
        if inputs.(1) = inputs.(2) then Some inputs.(1)
        else
          (* mux(s, 0, 1) = s; mux(s, 1, 0) = !s *)
          (match (known inputs.(1), known inputs.(2)) with
          | Some false, Some true -> Some inputs.(0)
          | _ -> None))
    | Circuit.Const _ | Circuit.Nand | Circuit.Nor | Circuit.Lut _ -> None
  in
  match fold () with
  | Some net -> net
  | None ->
    let key = (kind, Array.to_list inputs) in
    (match Hashtbl.find_opt st.gate_cache key with
    | Some net -> net
    | None ->
      let net = Circuit.add_gate st.circuit ~path kind inputs in
      Hashtbl.add st.gate_cache key net;
      net)

let g_and st path a b = gate st path Circuit.And [| a; b |]
let g_or st path a b = gate st path Circuit.Or [| a; b |]
let g_xor st path a b = gate st path Circuit.Xor [| a; b |]
let g_xnor st path a b = gate st path Circuit.Xnor [| a; b |]
let g_not st path a = gate st path Circuit.Not [| a |]
let g_mux st path sel a b = gate st path Circuit.Mux [| sel; a; b |]

let reduce st path op (bits : Circuit.net array) : Circuit.net =
  match Array.length bits with
  | 0 -> const0 st
  | _ -> Array.fold_left (fun acc b -> op st path acc b) bits.(0)
           (Array.sub bits 1 (Array.length bits - 1))

let extend st (bits : Circuit.net array) width : Circuit.net array =
  let have = Array.length bits in
  if have >= width then Array.sub bits 0 width
  else Array.init width (fun i -> if i < have then bits.(i) else const0 st)

let adder st path (a : Circuit.net array) (b : Circuit.net array)
    (carry_in : Circuit.net) : Circuit.net array * Circuit.net =
  let width = Array.length a in
  let out = Array.make width 0 in
  let carry = ref carry_in in
  for i = 0 to width - 1 do
    let axb = g_xor st path a.(i) b.(i) in
    out.(i) <- g_xor st path axb !carry;
    let c1 = g_and st path a.(i) b.(i) in
    let c2 = g_and st path axb !carry in
    carry := g_or st path c1 c2
  done;
  (out, !carry)

let subtractor st path a b : Circuit.net array * Circuit.net =
  (* a - b = a + ~b + 1; returned carry = not borrow (1 when a >= b) *)
  let nb = Array.map (fun bit -> g_not st path bit) b in
  adder st path a nb (const1 st)

let multiplier st path a b width : Circuit.net array =
  let acc = ref (Array.init width (fun _ -> const0 st)) in
  Array.iteri
    (fun i bbit ->
      if i < width then begin
        (* partial product of a shifted left by i, gated by b.(i) *)
        let pp =
          Array.init width (fun j ->
              if j < i then const0 st
              else if j - i < Array.length a then g_and st path a.(j - i) bbit
              else const0 st)
        in
        let sum, _ = adder st path !acc pp (const0 st) in
        acc := sum
      end)
    b;
  !acc

(* restoring divider; returns (quotient, remainder) *)
let divider st path (a : Circuit.net array) (b : Circuit.net array) :
    Circuit.net array * Circuit.net array =
  let width = Array.length a in
  let quotient = Array.make width 0 in
  let remainder = ref (Array.init width (fun _ -> const0 st)) in
  for i = width - 1 downto 0 do
    (* shift remainder left by 1, bring in bit i of a *)
    let shifted =
      Array.init width (fun j -> if j = 0 then a.(i) else !remainder.(j - 1))
    in
    let diff, no_borrow = subtractor st path shifted b in
    quotient.(i) <- no_borrow;
    remainder :=
      Array.init width (fun j -> g_mux st path no_borrow shifted.(j) diff.(j))
  done;
  (quotient, !remainder)

let less_than st path a b : Circuit.net =
  let _, no_borrow = subtractor st path a b in
  g_not st path no_borrow

let equal st path a b : Circuit.net =
  let bits = Array.mapi (fun i abit -> g_xnor st path abit b.(i)) a in
  reduce st path g_and bits

let shifter st path ~arith ~left (a : Circuit.net array)
    (amount : Circuit.net array) : Circuit.net array =
  let width = Array.length a in
  let fill = if arith && not left then a.(width - 1) else const0 st in
  let result = ref a in
  Array.iteri
    (fun stage sel ->
      let k = 1 lsl stage in
      if k < 2 * width then begin
        let shifted =
          Array.init width (fun i ->
              if left then if i >= k then !result.(i - k) else const0 st
              else if i + k < width then !result.(i + k)
              else fill)
        in
        result :=
          Array.init width (fun i -> g_mux st path sel !result.(i) shifted.(i))
      end
      else
        (* shifting by >= 2*width: a set bit here clears everything
           (or saturates to fill for arithmetic right shifts) *)
        result := Array.map (fun cur -> g_mux st path sel cur fill) !result)
    amount;
  !result

let mux_word st path sel (a : Circuit.net array) (b : Circuit.net array) :
    Circuit.net array =
  Array.init (Array.length a) (fun i -> g_mux st path sel a.(i) b.(i))

(* ---------- expression synthesis ---------- *)

(* [ctx] is the Verilog context width: operands of arithmetic and bitwise
   operators are evaluated at the width of the widest operand involved,
   including the assignment target. *)
let rec synth_expr st path em ~(ctx : int) (e : V.Ast.expr) : Circuit.net array =
  let self_width = expr_width em e in
  match e with
  | V.Ast.Ident name -> extend st (var_nets st path name) ctx
  | V.Ast.Num { value; _ } ->
    Array.init ctx (fun i ->
        if (value lsr i) land 1 = 1 then const1 st else const0 st)
  | V.Ast.Bit_select (name, idx) -> (
    let nets = var_nets st path name in
    match idx with
    | V.Ast.Num { value = i; _ } ->
      if i < 0 || i >= Array.length nets then
        fail "%s: bit select %s[%d] out of range" path name i;
      extend st [| nets.(i) |] ctx
    | _ ->
      (* variable index: mux tree over all bits *)
      let idx_width =
        let w = expr_width em idx in
        max 1 w
      in
      let sel = synth_expr st path em ~ctx:idx_width idx in
      let bit =
        Array.to_list nets
        |> List.mapi (fun i bit -> (i, bit))
        |> List.fold_left
             (fun acc (i, bit) ->
               let here =
                 equal st path sel
                   (Array.init idx_width (fun j ->
                        if (i lsr j) land 1 = 1 then const1 st else const0 st))
               in
               g_mux st path here acc bit)
             (const0 st)
      in
      extend st [| bit |] ctx)
  | V.Ast.Part_select (name, V.Ast.Num { value = msb; _ }, V.Ast.Num { value = lsb; _ }) ->
    let nets = var_nets st path name in
    if lsb < 0 || msb >= Array.length nets || msb < lsb then
      fail "%s: part select %s[%d:%d] out of range" path name msb lsb;
    extend st (Array.sub nets lsb (msb - lsb + 1)) ctx
  | V.Ast.Part_select _ -> fail "%s: part-select bounds must be constant" path
  | V.Ast.Concat es ->
    (* first element is most significant *)
    let parts =
      List.map (fun e -> synth_expr st path em ~ctx:(expr_width em e) e) es
    in
    extend st (Array.concat (List.rev parts)) ctx
  | V.Ast.Repeat (V.Ast.Num { value = n; _ }, es) ->
    let parts =
      List.map (fun e -> synth_expr st path em ~ctx:(expr_width em e) e) es
    in
    let once = Array.concat (List.rev parts) in
    extend st (Array.concat (List.init n (fun _ -> once))) ctx
  | V.Ast.Repeat _ -> fail "%s: replication count must be constant" path
  | V.Ast.Unary (op, a) -> (
    match op with
    | V.Ast.Uplus -> synth_expr st path em ~ctx a
    | V.Ast.Unot -> Array.map (fun b -> g_not st path b) (synth_expr st path em ~ctx a)
    | V.Ast.Uneg ->
      let av = synth_expr st path em ~ctx a in
      let inverted = Array.map (fun b -> g_not st path b) av in
      let zero = Array.init ctx (fun _ -> const0 st) in
      let sum, _ = adder st path inverted zero (const1 st) in
      sum
    | V.Ast.Ulognot ->
      let av = synth_expr st path em ~ctx:(expr_width em a) a in
      extend st [| g_not st path (reduce st path g_or av) |] ctx
    | V.Ast.Ured_and | V.Ast.Ured_or | V.Ast.Ured_xor | V.Ast.Ured_nand
    | V.Ast.Ured_nor | V.Ast.Ured_xnor ->
      let av = synth_expr st path em ~ctx:(expr_width em a) a in
      let core, negate =
        match op with
        | V.Ast.Ured_and -> ((g_and : state -> string -> _), false)
        | V.Ast.Ured_or -> (g_or, false)
        | V.Ast.Ured_xor -> (g_xor, false)
        | V.Ast.Ured_nand -> (g_and, true)
        | V.Ast.Ured_nor -> (g_or, true)
        | V.Ast.Ured_xnor -> (g_xor, true)
        | V.Ast.Unot | V.Ast.Ulognot | V.Ast.Uneg | V.Ast.Uplus ->
          assert false
      in
      let r = reduce st path core av in
      let r = if negate then g_not st path r else r in
      extend st [| r |] ctx)
  | V.Ast.Binary (op, a, b) -> (
    let operand_ctx = max ctx self_width in
    match op with
    | V.Ast.Badd ->
      let av = synth_expr st path em ~ctx:operand_ctx a in
      let bv = synth_expr st path em ~ctx:operand_ctx b in
      let sum, _ = adder st path av bv (const0 st) in
      extend st sum ctx
    | V.Ast.Bsub ->
      let av = synth_expr st path em ~ctx:operand_ctx a in
      let bv = synth_expr st path em ~ctx:operand_ctx b in
      let diff, _ = subtractor st path av bv in
      extend st diff ctx
    | V.Ast.Bmul ->
      let av = synth_expr st path em ~ctx:operand_ctx a in
      let bv = synth_expr st path em ~ctx:operand_ctx b in
      extend st (multiplier st path av bv operand_ctx) ctx
    | V.Ast.Bdiv ->
      let av = synth_expr st path em ~ctx:operand_ctx a in
      let bv = synth_expr st path em ~ctx:operand_ctx b in
      extend st (fst (divider st path av bv)) ctx
    | V.Ast.Bmod ->
      let av = synth_expr st path em ~ctx:operand_ctx a in
      let bv = synth_expr st path em ~ctx:operand_ctx b in
      extend st (snd (divider st path av bv)) ctx
    | V.Ast.Bpow -> fail "%s: ** is only supported in constant expressions" path
    | V.Ast.Band | V.Ast.Bor | V.Ast.Bxor | V.Ast.Bxnor ->
      let av = synth_expr st path em ~ctx:operand_ctx a in
      let bv = synth_expr st path em ~ctx:operand_ctx b in
      let f =
        match op with
        | V.Ast.Band -> g_and
        | V.Ast.Bor -> g_or
        | V.Ast.Bxor -> g_xor
        | _ -> g_xnor
      in
      extend st (Array.mapi (fun i abit -> f st path abit bv.(i)) av) ctx
    | V.Ast.Blogand | V.Ast.Blogor ->
      let av = synth_expr st path em ~ctx:(expr_width em a) a in
      let bv = synth_expr st path em ~ctx:(expr_width em b) b in
      let ra = reduce st path g_or av and rb = reduce st path g_or bv in
      let r = if op = V.Ast.Blogand then g_and st path ra rb else g_or st path ra rb in
      extend st [| r |] ctx
    | V.Ast.Beq | V.Ast.Bceq | V.Ast.Bneq | V.Ast.Bcneq ->
      let w = max (expr_width em a) (expr_width em b) in
      let av = synth_expr st path em ~ctx:w a in
      let bv = synth_expr st path em ~ctx:w b in
      let r = equal st path av bv in
      let r = if op = V.Ast.Bneq || op = V.Ast.Bcneq then g_not st path r else r in
      extend st [| r |] ctx
    | V.Ast.Blt | V.Ast.Ble | V.Ast.Bgt | V.Ast.Bge ->
      let w = max (expr_width em a) (expr_width em b) in
      let av = synth_expr st path em ~ctx:w a in
      let bv = synth_expr st path em ~ctx:w b in
      let r =
        match op with
        | V.Ast.Blt -> less_than st path av bv
        | V.Ast.Bge -> g_not st path (less_than st path av bv)
        | V.Ast.Bgt -> less_than st path bv av
        | _ -> g_not st path (less_than st path bv av)
      in
      extend st [| r |] ctx
    | V.Ast.Bshl | V.Ast.Bshr | V.Ast.Bashr -> (
      let av = synth_expr st path em ~ctx:operand_ctx a in
      match b with
      | V.Ast.Num { value = k; _ } ->
        let w = Array.length av in
        let shifted =
          Array.init w (fun i ->
              if op = V.Ast.Bshl then if i >= k then av.(i - k) else const0 st
              else if i + k < w then av.(i + k)
              else if op = V.Ast.Bashr then av.(w - 1)
              else const0 st)
        in
        extend st shifted ctx
      | _ ->
        let bw = expr_width em b in
        let bv = synth_expr st path em ~ctx:bw b in
        extend st
          (shifter st path ~arith:(op = V.Ast.Bashr) ~left:(op = V.Ast.Bshl) av bv)
          ctx))
  | V.Ast.Ternary (c, a, b) ->
    let cv = synth_expr st path em ~ctx:(expr_width em c) c in
    let sel = reduce st path g_or cv in
    let operand_ctx = max ctx self_width in
    let av = synth_expr st path em ~ctx:operand_ctx a in
    let bv = synth_expr st path em ~ctx:operand_ctx b in
    extend st (mux_word st path sel bv av) ctx

(* ---------- always-block symbolic execution ---------- *)

(* [reads] is consulted when a variable is read inside the block (updated
   by blocking assignments only); [finals] accumulates the end-of-block
   value of every written variable. *)
type block_env = {
  reads : Circuit.net array Smap.t;
  finals : Circuit.net array Smap.t;
}

let empty_env = { reads = Smap.empty; finals = Smap.empty }

(* a temporary module view whose variable reads go through the block env:
   achieved by overriding var lookup via a shadow table would complicate
   synth_expr; instead we substitute reads by temporarily swapping the
   vars table entries. *)
let with_env_reads st path (env : block_env) (f : unit -> 'a) : 'a =
  let saved =
    Smap.fold
      (fun name nets acc ->
        let key = var_key path name in
        let old = Hashtbl.find_opt st.vars key in
        Hashtbl.replace st.vars key nets;
        (key, old) :: acc)
      env.reads []
  in
  let restore () =
    List.iter
      (fun (key, old) ->
        match old with
        | Some nets -> Hashtbl.replace st.vars key nets
        | None -> Hashtbl.remove st.vars key)
      saved
  in
  match f () with
  | result ->
    restore ();
    result
  | exception e ->
    restore ();
    raise e

let rec assign_lvalue st path em env ~blocking (lhs : V.Ast.expr) (value : Circuit.net array) :
    block_env =
  let update env name new_nets =
    let finals = Smap.add name new_nets env.finals in
    let reads = if blocking then Smap.add name new_nets env.reads else env.reads in
    { reads; finals }
  in
  let current env name =
    match Smap.find_opt name env.finals with
    | Some nets -> nets
    | None -> var_nets st path name
  in
  match lhs with
  | V.Ast.Ident name ->
    let width = V.Elaborate.net_width em name in
    update env name (extend st value width)
  | V.Ast.Bit_select (name, V.Ast.Num { value = i; _ }) ->
    let old = current env name in
    let nets = Array.copy old in
    if i < 0 || i >= Array.length nets then
      fail "%s: assignment to %s[%d] out of range" path name i;
    nets.(i) <- (extend st value 1).(0);
    update env name nets
  | V.Ast.Part_select (name, V.Ast.Num { value = msb; _ }, V.Ast.Num { value = lsb; _ }) ->
    let old = current env name in
    let nets = Array.copy old in
    let value = extend st value (msb - lsb + 1) in
    for i = lsb to msb do
      nets.(i) <- value.(i - lsb)
    done;
    update env name nets
  | V.Ast.Concat parts ->
    (* first part is most significant *)
    let rec place env parts offset =
      match parts with
      | [] -> env
      | part :: rest ->
        let w = expr_width em part in
        let offset = offset - w in
        let slice = Array.sub value offset w in
        place (assign_lvalue st path em env ~blocking part slice) rest offset
    in
    place env parts (Array.length value)
  | V.Ast.Bit_select _ | V.Ast.Part_select _ ->
    fail "%s: lvalue select indices must be constant" path
  | V.Ast.Num _ | V.Ast.Unary _ | V.Ast.Binary _ | V.Ast.Ternary _
  | V.Ast.Repeat _ -> fail "%s: invalid lvalue" path

let merge_envs st path sel (then_env : block_env) (else_env : block_env)
    (base : block_env) : block_env =
  let merge_map proj =
    let keys =
      Smap.union (fun _ a _ -> Some a) (proj then_env) (proj else_env)
      |> Smap.bindings |> List.map fst
    in
    List.fold_left
      (fun acc name ->
        let fallback () =
          match Smap.find_opt name (proj base) with
          | Some nets -> nets
          | None -> var_nets st path name
        in
        let tv = Option.value (Smap.find_opt name (proj then_env)) ~default:(fallback ()) in
        let ev = Option.value (Smap.find_opt name (proj else_env)) ~default:(fallback ()) in
        let w = max (Array.length tv) (Array.length ev) in
        let tv = extend st tv w and ev = extend st ev w in
        Smap.add name (mux_word st path sel ev tv) acc)
      Smap.empty keys
  in
  { reads = merge_map (fun e -> e.reads); finals = merge_map (fun e -> e.finals) }

let rec exec_stmt st path em (env : block_env) (s : V.Ast.stmt) : block_env =
  match s with
  | V.Ast.Blocking (lhs, rhs) ->
    let width = lvalue_width em lhs in
    let value = with_env_reads st path env (fun () -> synth_expr st path em ~ctx:width rhs) in
    assign_lvalue st path em env ~blocking:true lhs value
  | V.Ast.Nonblocking (lhs, rhs) ->
    let width = lvalue_width em lhs in
    let value = with_env_reads st path env (fun () -> synth_expr st path em ~ctx:width rhs) in
    assign_lvalue st path em env ~blocking:false lhs value
  | V.Ast.If (cond, then_b, else_b) ->
    let cv =
      with_env_reads st path env (fun () ->
          synth_expr st path em ~ctx:(expr_width em cond) cond)
    in
    let sel = reduce st path g_or cv in
    let then_env = exec_stmts st path em env then_b in
    let else_env = exec_stmts st path em env else_b in
    merge_envs st path sel then_env else_env env
  | V.Ast.Case (subject, arms, dflt) ->
    let sw = expr_width em subject in
    let sv =
      with_env_reads st path env (fun () -> synth_expr st path em ~ctx:sw subject)
    in
    let default_env =
      match dflt with
      | Some body -> exec_stmts st path em env body
      | None -> env
    in
    let constant_label = function
      | V.Ast.Num { value; _ } -> Some value
      | V.Ast.Ident _ | V.Ast.Unary _ | V.Ast.Binary _ | V.Ast.Ternary _
      | V.Ast.Bit_select _ | V.Ast.Part_select _ | V.Ast.Concat _
      | V.Ast.Repeat _ -> None
    in
    let all_labels = List.concat_map fst arms in
    let constants = List.filter_map constant_label all_labels in
    if sw <= 8 && List.length constants = List.length all_labels then
      (* dense selector: build a balanced decision tree over the subject
         bits. Structural LUT mapping then collapses constant-leaf
         subtrees into single LUTs, which is what keeps ROM-style case
         statements at sane LUT counts. *)
      case_decision_tree st path em env sv arms default_env
    else
      (* fold arms from the last to the first so earlier labels win *)
      List.fold_left
        (fun lower (labels, body) ->
          let hit =
            List.map
              (fun label ->
                let lv =
                  with_env_reads st path env (fun () ->
                      synth_expr st path em ~ctx:sw label)
                in
                equal st path sv lv)
              labels
            |> Array.of_list |> reduce st path g_or
          in
          let arm_env = exec_stmts st path em env body in
          merge_envs st path hit arm_env lower env)
        default_env (List.rev arms)

and case_decision_tree st path em env (sv : Circuit.net array)
    (arms : (V.Ast.expr list * V.Ast.stmt list) list) (default_env : block_env)
    : block_env =
  let sw = Array.length sv in
  (* environment for every subject value: the first matching arm wins *)
  let arm_envs =
    List.map (fun (labels, body) -> (labels, exec_stmts st path em env body)) arms
  in
  let mask = (1 lsl sw) - 1 in
  let env_for value =
    let matches (labels, _) =
      List.exists
        (fun label ->
          match label with
          | V.Ast.Num { value = v; _ } -> v land mask = value
          | V.Ast.Ident _ | V.Ast.Unary _ | V.Ast.Binary _ | V.Ast.Ternary _
          | V.Ast.Bit_select _ | V.Ast.Part_select _ | V.Ast.Concat _
          | V.Ast.Repeat _ -> false)
        labels
    in
    match List.find_opt matches arm_envs with
    | Some (_, arm_env) -> arm_env
    | None -> default_env
  in
  let keys_of proj =
    List.fold_left
      (fun acc (_, e) -> Smap.union (fun _ a _ -> Some a) acc (proj e))
      (proj default_env) arm_envs
    |> Smap.bindings |> List.map fst
  in
  let merge_var proj name =
    let leaf value =
      let e = env_for value in
      let nets =
        match Smap.find_opt name (proj e) with
        | Some nets -> nets
        | None -> (
          match Smap.find_opt name (proj env) with
          | Some nets -> nets
          | None -> var_nets st path name)
      in
      nets
    in
    let width =
      let rec max_w v acc =
        if v >= 1 lsl sw then acc
        else max_w (v + 1) (max acc (Array.length (leaf v)))
      in
      max_w 0 0
    in
    let rec tree bit lo =
      if bit < 0 then extend st (leaf lo) width
      else begin
        let zero = tree (bit - 1) lo in
        let one = tree (bit - 1) (lo lor (1 lsl bit)) in
        if zero = one then zero else mux_word st path sv.(bit) zero one
      end
    in
    tree (sw - 1) 0
  in
  let merge proj =
    List.fold_left
      (fun acc name -> Smap.add name (merge_var proj name) acc)
      Smap.empty (keys_of proj)
  in
  { reads = merge (fun e -> e.reads); finals = merge (fun e -> e.finals) }

and exec_stmts st path em env body = List.fold_left (exec_stmt st path em) env body

and lvalue_width em (lhs : V.Ast.expr) : int =
  match lhs with
  | V.Ast.Ident name -> (
    try V.Elaborate.net_width em name with Invalid_argument _ -> 1)
  | V.Ast.Bit_select _ -> 1
  | V.Ast.Part_select (_, V.Ast.Num { value = m; _ }, V.Ast.Num { value = l; _ }) ->
    m - l + 1
  | V.Ast.Concat parts ->
    List.fold_left (fun acc p -> acc + lvalue_width em p) 0 parts
  | V.Ast.Num _ | V.Ast.Unary _ | V.Ast.Binary _ | V.Ast.Ternary _
  | V.Ast.Repeat _ | V.Ast.Part_select _ -> fail "invalid lvalue"

let is_clocked (sens : V.Ast.sensitivity) : bool =
  match sens with
  | V.Ast.Sens_star -> false
  | V.Ast.Sens_events evs ->
    List.exists
      (fun (e : V.Ast.event) ->
        match e.edge with
        | V.Ast.Posedge | V.Ast.Negedge -> true
        | V.Ast.Level -> false)
      evs

(* In a clocked block with an asynchronous reset in the sensitivity list,
   the reset is also read as data inside the body (e.g. [if (!rst) ...]),
   so folding it into the D logic preserves the steady-state behaviour. *)
let synth_always st path em (sens : V.Ast.sensitivity) (body : V.Ast.stmt list) =
  let env = exec_stmts st path em empty_env body in
  if is_clocked sens then
    Smap.iter
      (fun name value ->
        let targets = var_nets st path name in
        Array.iteri (fun i d -> drive_dff st path targets.(i) d) (extend st value (Array.length targets)))
      env.finals
  else
    Smap.iter
      (fun name value ->
        let targets = var_nets st path name in
        Array.iteri
          (fun i v -> drive_net st path targets.(i) v)
          (extend st value (Array.length targets)))
      env.finals

(* ---------- module instance flattening ---------- *)

let rec declare_vars st path (em : V.Elaborate.emodule) =
  List.iter
    (fun (n : V.Elaborate.enet) ->
      Hashtbl.replace st.vars (var_key path n.nname)
        (Array.init n.nwidth (fun _ -> Circuit.fresh_net st.circuit)))
    em.em_nets;
  List.iter
    (fun (ei : V.Elaborate.einstance) ->
      declare_vars st (path ^ "." ^ ei.ei_name)
        (V.Elaborate.find_emodule st.design ei.ei_module))
    em.em_instances

let rec drive_module st path (em : V.Elaborate.emodule) =
  List.iter
    (fun (lhs, rhs) ->
      let width = lvalue_width em lhs in
      let value = synth_expr st path em ~ctx:width rhs in
      (* continuous assignment: route through the same lvalue machinery *)
      let env = assign_lvalue st path em empty_env ~blocking:false lhs value in
      Smap.iter
        (fun name v ->
          let targets = var_nets st path name in
          (* only drive the bits this lvalue actually covers: compare
             against the declared nets to find replaced positions *)
          Array.iteri
            (fun i value_net ->
              if value_net <> targets.(i) then drive_net st path targets.(i) value_net)
            (extend st v (Array.length targets)))
        env.finals)
    em.em_assigns;
  List.iter (fun (sens, body) -> synth_always st path em sens body) em.em_always;
  List.iter
    (fun (ei : V.Elaborate.einstance) ->
      let child_path = path ^ "." ^ ei.ei_name in
      let child = V.Elaborate.find_emodule st.design ei.ei_module in
      List.iter
        (fun (port_name, conn) ->
          let port =
            List.find (fun (p : V.Elaborate.eport) -> p.pname = port_name)
              child.V.Elaborate.em_ports
          in
          let port_nets = var_nets st child_path port_name in
          match (port.dir, conn) with
          | V.Ast.Input, None ->
            Array.iter (fun n -> drive_net st path n (const0 st)) port_nets
          | V.Ast.Input, Some expr ->
            let value = synth_expr st path em ~ctx:port.width expr in
            Array.iteri (fun i v -> drive_net st child_path port_nets.(i) v) value
          | V.Ast.Output, None -> ()
          | V.Ast.Output, Some lhs ->
            let env =
              assign_lvalue st path em empty_env ~blocking:false lhs port_nets
            in
            Smap.iter
              (fun name v ->
                let targets = var_nets st path name in
                Array.iteri
                  (fun i value_net ->
                    if value_net <> targets.(i) then
                      drive_net st path targets.(i) value_net)
                  (extend st v (Array.length targets)))
              env.finals
          | V.Ast.Inout, _ -> fail "%s: inout ports are not synthesizable here" path)
        ei.ei_bindings;
      drive_module st child_path child)
    em.em_instances

(** Flatten an elaborated design into a gate-level circuit. The circuit's
    primary inputs/outputs are the top module's ports. Undriven nets are
    tied to constant 0 (matching the simulator's x-free semantics). *)
let synthesize ?name (d : V.Elaborate.design) : Circuit.t =
  let top = V.Elaborate.find_emodule d d.V.Elaborate.d_top in
  let circuit = Circuit.create (Option.value name ~default:top.em_name) in
  let st =
    { circuit; design = d; vars = Hashtbl.create 256;
      driven = Hashtbl.create 256; zero = None; one = None;
      gate_cache = Hashtbl.create 1024 }
  in
  let path = d.V.Elaborate.d_top in
  declare_vars st path top;
  (* top-level inputs become primary inputs: rebind their var nets *)
  List.iter
    (fun (p : V.Elaborate.eport) ->
      match p.dir with
      | V.Ast.Input ->
        let nets = Circuit.add_input circuit p.pname p.width in
        Hashtbl.replace st.vars (var_key path p.pname) nets;
        Array.iter (fun n -> Hashtbl.add st.driven n ()) nets
      | V.Ast.Output -> ()
      | V.Ast.Inout -> fail "top-level inout ports are not supported")
    top.em_ports;
  drive_module st path top;
  (* register primary outputs *)
  List.iter
    (fun (p : V.Elaborate.eport) ->
      match p.dir with
      | V.Ast.Output -> Circuit.set_output circuit p.pname (var_nets st path p.pname)
      | V.Ast.Input | V.Ast.Inout -> ())
    top.em_ports;
  (* tie off undriven nets *)
  Hashtbl.iter
    (fun _key nets ->
      Array.iter
        (fun n ->
          if not (Hashtbl.mem st.driven n) then begin
            Hashtbl.add st.driven n ();
            Circuit.add_gate_with_output circuit (Circuit.Const false) [||] ~output:n
          end)
        nets)
    st.vars;
  circuit

(** Synthesize one module of the design as if it were the top (used to
    characterize a redaction cluster member). *)
let synthesize_module (d : V.Elaborate.design) (module_name : string) : Circuit.t =
  let sub = { d with V.Elaborate.d_top = module_name } in
  synthesize ~name:module_name sub
