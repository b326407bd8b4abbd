(** Regeneration of Verilog source from the AST.

    The output parses back through {!Parser} to an equivalent tree
    (modulo redundant parentheses); this round-trip is property-tested. *)

(** Append the design's modules, in order, to the buffer. *)
val add_design : Buffer.t -> Ast.design -> unit

val expr_to_string : Ast.expr -> string

val module_to_string : Ast.module_decl -> string
