(** Abstract syntax tree for the supported Verilog-2001 subset.

    Constant literals are limited to 62 bits so they fit an OCaml [int];
    wider constants must be written as concatenations. *)

type unop =
  | Unot | Ulognot | Uneg | Uplus
  | Ured_and | Ured_or | Ured_xor | Ured_nand | Ured_nor | Ured_xnor

type binop =
  | Badd | Bsub | Bmul | Bdiv | Bmod | Bpow
  | Band | Bor | Bxor | Bxnor
  | Blogand | Blogor
  | Beq | Bneq | Bceq | Bcneq
  | Blt | Ble | Bgt | Bge
  | Bshl | Bshr | Bashr

type number = {
  width : int option;  (** [None] for unsized decimal literals *)
  value : int;         (** bit pattern, at most 62 bits *)
}

type expr =
  | Ident of string
  | Num of number
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Ternary of expr * expr * expr
  | Bit_select of string * expr
  | Part_select of string * expr * expr  (** name[msb:lsb] *)
  | Concat of expr list
  | Repeat of expr * expr list           (** [{n{...}}] *)

type direction = Input | Output | Inout

type net_kind = Wire | Reg

type range = expr * expr  (** msb, lsb; constant expressions *)

type edge = Posedge | Negedge | Level

type event = { edge : edge; signal : string }

type sensitivity = Sens_star | Sens_events of event list

type stmt =
  | Blocking of expr * expr
  | Nonblocking of expr * expr
  | If of expr * stmt list * stmt list
  | Case of expr * (expr list * stmt list) list * stmt list option

type port_binding = {
  port_name : string option;  (** [None] for positional connections *)
  port_expr : expr option;    (** [None] for unconnected [.name()] *)
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
  mod_ports : string list;  (** header order *)
  mod_items : item list;
  mod_loc : Loc.t;
}

type design = { modules : module_decl list }

(** [num ?width v] builds a numeric literal expression. *)
val num : ?width:int -> int -> expr

val find_module : design -> string -> module_decl option

(** Identifiers read by an expression, prepended to the accumulator. *)
val expr_idents : string list -> expr -> string list

(** Base identifiers assigned by an lvalue expression. *)
val lvalue_targets : string list -> expr -> string list
