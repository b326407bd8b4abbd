(** Elaboration: resolves parameters and ranges to integers, specializes
    parameterized modules (name-mangled per override set), and produces
    a resolved design ready for analysis and synthesis. Parameter
    references inside expressions are substituted by numeric values. *)

module Smap : Map.S with type key = string

type eport = { pname : string; dir : Ast.direction; width : int }

type enet = { nname : string; nwidth : int; nkind : Ast.net_kind }

type einstance = {
  ei_name : string;
  ei_module : string;  (** specialized module name *)
  ei_orig_module : string;
  ei_bindings : (string * Ast.expr option) list;
      (** in callee port order: (port name, connected expression) *)
  ei_loc : Loc.t;
}

type emodule = {
  em_name : string;  (** possibly specialized, e.g. [adder$W_16] *)
  em_orig_name : string;
  em_ports : eport list;
  em_nets : enet list;  (** includes ports *)
  em_assigns : (Ast.expr * Ast.expr) list;
  em_always : (Ast.sensitivity * Ast.stmt list) list;
  em_instances : einstance list;
  em_params : (string * int) list;
}

type design = {
  d_top : string;
  d_modules : emodule Smap.t;  (** keyed by specialized name *)
}

(** Raises [Invalid_argument] when the module does not exist. *)
val find_emodule : design -> string -> emodule

(** Bit width of a declared net; [Invalid_argument] if unknown. *)
val net_width : emodule -> string -> int

(** Evaluate a constant expression under a parameter environment;
    [Invalid_argument] on non-constant input. *)
val eval_const : int Smap.t -> Ast.expr -> int

(** Pick the top module: the unique module never instantiated by another.
    [Invalid_argument] when ambiguous or absent. *)
val detect_top : Ast.design -> string

(** Elaborate a parsed design. [top] defaults to {!detect_top}. Raises
    {!Loc.Error} or [Invalid_argument] on elaboration failures. *)
val elaborate : ?top:string -> Ast.design -> design

(** Total I/O pin count of a module: the sum of its port widths — the
    structural metric ALICE's filtering checks against the fabric I/O
    limit. *)
val io_pin_count : emodule -> int
