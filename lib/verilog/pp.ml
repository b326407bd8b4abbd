(** Regeneration of Verilog source from the AST.

    The output parses back through {!Parser} to an equivalent tree (modulo
    redundant parentheses); this round-trip is property-tested. *)

let unop_str = function
  | Ast.Unot -> "~"
  | Ast.Ulognot -> "!"
  | Ast.Uneg -> "-"
  | Ast.Uplus -> "+"
  | Ast.Ured_and -> "&"
  | Ast.Ured_or -> "|"
  | Ast.Ured_xor -> "^"
  | Ast.Ured_nand -> "~&"
  | Ast.Ured_nor -> "~|"
  | Ast.Ured_xnor -> "~^"

let binop_str = function
  | Ast.Badd -> "+"
  | Ast.Bsub -> "-"
  | Ast.Bmul -> "*"
  | Ast.Bdiv -> "/"
  | Ast.Bmod -> "%"
  | Ast.Bpow -> "**"
  | Ast.Band -> "&"
  | Ast.Bor -> "|"
  | Ast.Bxor -> "^"
  | Ast.Bxnor -> "~^"
  | Ast.Blogand -> "&&"
  | Ast.Blogor -> "||"
  | Ast.Beq -> "=="
  | Ast.Bneq -> "!="
  | Ast.Bceq -> "==="
  | Ast.Bcneq -> "!=="
  | Ast.Blt -> "<"
  | Ast.Ble -> "<="
  | Ast.Bgt -> ">"
  | Ast.Bge -> ">="
  | Ast.Bshl -> "<<"
  | Ast.Bshr -> ">>"
  | Ast.Bashr -> ">>>"

(* print each element of [l] with [add], [sep] between them *)
let add_list sep add buf l =
  List.iteri (fun i x -> if i > 0 then Buffer.add_string buf sep; add buf x) l

let rec add_expr buf = function
  | Ast.Ident s -> Buffer.add_string buf s
  | Ast.Num { width = None; value } -> Printf.bprintf buf "%d" value
  | Ast.Num { width = Some w; value } -> Printf.bprintf buf "%d'h%x" w value
  | Ast.Unary (op, e) -> Printf.bprintf buf "%s(%a)" (unop_str op) add_expr e
  | Ast.Binary (op, a, b) ->
    Printf.bprintf buf "(%a %s %a)" add_expr a (binop_str op) add_expr b
  | Ast.Ternary (c, a, b) ->
    Printf.bprintf buf "(%a ? %a : %a)" add_expr c add_expr a add_expr b
  | Ast.Bit_select (s, i) -> Printf.bprintf buf "%s[%a]" s add_expr i
  | Ast.Part_select (s, m, l) ->
    Printf.bprintf buf "%s[%a:%a]" s add_expr m add_expr l
  | Ast.Concat es -> Printf.bprintf buf "{%a}" (add_list ", " add_expr) es
  | Ast.Repeat (n, es) ->
    Printf.bprintf buf "{%a{%a}}" add_expr n (add_list ", " add_expr) es

let add_range buf = function
  | None -> ()
  | Some (msb, lsb) -> Printf.bprintf buf " [%a:%a]" add_expr msb add_expr lsb

let dir_str = function
  | Ast.Input -> "input"
  | Ast.Output -> "output"
  | Ast.Inout -> "inout"

let kind_str = function Ast.Wire -> "" | Ast.Reg -> " reg"

let rec add_stmt indent buf stmt =
  let pad = String.make indent ' ' in
  match stmt with
  | Ast.Blocking (lhs, rhs) ->
    Printf.bprintf buf "%s%a = %a;\n" pad add_expr lhs add_expr rhs
  | Ast.Nonblocking (lhs, rhs) ->
    Printf.bprintf buf "%s%a <= %a;\n" pad add_expr lhs add_expr rhs
  | Ast.If (c, t, e) ->
    Printf.bprintf buf "%sif (%a) begin\n%a%send\n" pad add_expr c
      (add_stmts (indent + 2)) t pad;
    (match e with
    | [] -> ()
    | _ ->
      Printf.bprintf buf "%selse begin\n%a%send\n" pad (add_stmts (indent + 2)) e pad)
  | Ast.Case (subject, arms, dflt) ->
    Printf.bprintf buf "%scase (%a)\n" pad add_expr subject;
    List.iter
      (fun (labels, body) ->
        Printf.bprintf buf "%s  %a: begin\n%a%s  end\n" pad
          (add_list ", " add_expr) labels
          (add_stmts (indent + 4))
          body pad)
      arms;
    (match dflt with
    | None -> ()
    | Some body ->
      Printf.bprintf buf "%s  default: begin\n%a%s  end\n" pad
        (add_stmts (indent + 4)) body pad);
    Printf.bprintf buf "%sendcase\n" pad

and add_stmts indent buf stmts = List.iter (add_stmt indent buf) stmts

let add_sensitivity buf = function
  | Ast.Sens_star -> Buffer.add_string buf "@(*)"
  | Ast.Sens_events evs ->
    let add_event buf { Ast.edge; signal } =
      match edge with
      | Ast.Posedge -> Printf.bprintf buf "posedge %s" signal
      | Ast.Negedge -> Printf.bprintf buf "negedge %s" signal
      | Ast.Level -> Buffer.add_string buf signal
    in
    Printf.bprintf buf "@(%a)" (add_list " or " add_event) evs

let add_item buf = function
  | Ast.Port_decl (dir, kind, range, names) ->
    Printf.bprintf buf "  %s%s%a %s;\n" (dir_str dir) (kind_str kind) add_range
      range
      (String.concat ", " names)
  | Ast.Net_decl (kind, range, names) ->
    let kw = match kind with Ast.Wire -> "wire" | Ast.Reg -> "reg" in
    Printf.bprintf buf "  %s%a %s;\n" kw add_range range (String.concat ", " names)
  | Ast.Param_decl (local, assigns) ->
    let kw = if local then "localparam" else "parameter" in
    List.iter
      (fun (name, value) ->
        Printf.bprintf buf "  %s %s = %a;\n" kw name add_expr value)
      assigns
  | Ast.Assign (lhs, rhs) ->
    Printf.bprintf buf "  assign %a = %a;\n" add_expr lhs add_expr rhs
  | Ast.Always (sens, body) ->
    Printf.bprintf buf "  always %a begin\n%a  end\n" add_sensitivity sens
      (add_stmts 4) body
  | Ast.Instance { inst_module; inst_name; inst_params; inst_ports; inst_loc = _ } ->
    let add_param buf = function
      | Some n, e -> Printf.bprintf buf ".%s(%a)" n add_expr e
      | None, e -> add_expr buf e
    in
    let add_binding buf { Ast.port_name; port_expr } =
      match (port_name, port_expr) with
      | Some n, Some e -> Printf.bprintf buf ".%s(%a)" n add_expr e
      | Some n, None -> Printf.bprintf buf ".%s()" n
      | None, Some e -> add_expr buf e
      | None, None -> ()
    in
    Printf.bprintf buf "  %s" inst_module;
    (match inst_params with
    | [] -> ()
    | ps -> Printf.bprintf buf " #(%a)" (add_list ", " add_param) ps);
    Printf.bprintf buf " %s (%a);\n" inst_name (add_list ", " add_binding)
      inst_ports

let add_module buf (m : Ast.module_decl) =
  Printf.bprintf buf "module %s (%s);\n" m.Ast.mod_name
    (String.concat ", " m.Ast.mod_ports);
  List.iter (add_item buf) m.Ast.mod_items;
  Buffer.add_string buf "endmodule\n\n"

let add_design buf (d : Ast.design) = List.iter (add_module buf) d.Ast.modules

let to_string add x =
  let buf = Buffer.create 4096 in
  add buf x;
  Buffer.contents buf

let module_to_string m = to_string add_module m

let expr_to_string e = to_string add_expr e
