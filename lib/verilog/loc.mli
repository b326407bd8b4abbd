(** Source locations for error reporting across the Verilog frontend. *)

type t = { file : string; line : int; col : int }

val none : t

val make : file:string -> line:int -> col:int -> t

val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** Located error raised by the lexer, parser and elaborator alike, so
    that callers have one handler. *)
exception Error of t * string

(** [error loc fmt ...] raises {!Error} with a formatted message. *)
val error : t -> ('a, Format.formatter, unit, 'b) format4 -> 'a
