(** Abstract syntax tree for the supported Verilog-2001 subset.

    Constant literals are limited to 62 bits so they fit an OCaml [int];
    wider constants must be written as concatenations (the bundled
    benchmarks respect this). *)

type unop =
  | Unot            (* ~  bitwise not *)
  | Ulognot         (* !  logical not *)
  | Uneg            (* -  arithmetic negation *)
  | Uplus           (* +  no-op *)
  | Ured_and        (* &  reduction *)
  | Ured_or         (* |  *)
  | Ured_xor        (* ^  *)
  | Ured_nand       (* ~& *)
  | Ured_nor        (* ~| *)
  | Ured_xnor       (* ~^ *)

type binop =
  | Badd | Bsub | Bmul | Bdiv | Bmod | Bpow
  | Band | Bor | Bxor | Bxnor
  | Blogand | Blogor
  | Beq | Bneq | Bceq | Bcneq
  | Blt | Ble | Bgt | Bge
  | Bshl | Bshr | Bashr

type number = {
  width : int option;  (* None for unsized decimal literals *)
  value : int;         (* bit pattern, at most 62 bits *)
}

type expr =
  | Ident of string
  | Num of number
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Ternary of expr * expr * expr
  | Bit_select of string * expr
  | Part_select of string * expr * expr      (* name[msb:lsb] *)
  | Concat of expr list
  | Repeat of expr * expr list               (* {n{...}} *)

type direction = Input | Output | Inout

type net_kind = Wire | Reg

type range = expr * expr  (* msb, lsb; constant expressions *)

type edge = Posedge | Negedge | Level

type event = { edge : edge; signal : string }

type sensitivity =
  | Sens_star                 (* the star form of the sensitivity list *)
  | Sens_events of event list

type stmt =
  | Blocking of expr * expr      (* lhs = rhs *)
  | Nonblocking of expr * expr   (* lhs <= rhs *)
  | If of expr * stmt list * stmt list
  | Case of expr * (expr list * stmt list) list * stmt list option

type port_binding = {
  port_name : string option;  (* None for positional connections *)
  port_expr : expr option;    (* None for unconnected .name() *)
}

type instance = {
  inst_module : string;
  inst_name : string;
  inst_params : (string option * expr) list;
  inst_ports : port_binding list;
  inst_loc : Loc.t;
}

type item =
  | Port_decl of direction * net_kind * range option * string list
  | Net_decl of net_kind * range option * string list
  | Param_decl of bool (* local *) * (string * expr) list
  | Assign of expr * expr
  | Always of sensitivity * stmt list
  | Instance of instance

type module_decl = {
  mod_name : string;
  mod_ports : string list;   (* header order *)
  mod_items : item list;
  mod_loc : Loc.t;
}

type design = { modules : module_decl list }

(* -- convenience constructors used by tests and by generated code -- *)

let num ?width value = Num { width; value }

let find_module design name =
  List.find_opt (fun m -> m.mod_name = name) design.modules

(* -- traversal helpers -- *)

(** All identifiers read by an expression (excluding bit/part select
    indices, which are constants in our subset but harmless to include). *)
let rec expr_idents acc = function
  | Ident s -> s :: acc
  | Num _ -> acc
  | Unary (_, e) -> expr_idents acc e
  | Binary (_, a, b) -> expr_idents (expr_idents acc a) b
  | Ternary (c, a, b) -> expr_idents (expr_idents (expr_idents acc c) a) b
  | Bit_select (s, i) -> expr_idents (s :: acc) i
  | Part_select (s, a, b) -> expr_idents (expr_idents (s :: acc) a) b
  | Concat es -> List.fold_left expr_idents acc es
  | Repeat (n, es) -> List.fold_left expr_idents (expr_idents acc n) es

(** Base identifiers assigned by an lvalue expression. *)
let rec lvalue_targets acc = function
  | Ident s | Bit_select (s, _) | Part_select (s, _, _) -> s :: acc
  | Concat es -> List.fold_left lvalue_targets acc es
  | Num _ | Unary _ | Binary _ | Ternary _ | Repeat _ -> acc
