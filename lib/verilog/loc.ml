(** Source locations for error reporting across the Verilog frontend. *)

type t = { file : string; line : int; col : int }

let none = { file = "<none>"; line = 0; col = 0 }

let make ~file ~line ~col = { file; line; col }

let to_string { file; line; col } = Printf.sprintf "%s:%d:%d" file line col

let pp fmt loc = Format.pp_print_string fmt (to_string loc)

(** Exception carrying a located error message; raised by the lexer,
    parser and elaborator alike so that callers have one handler. *)
exception Error of t * string

let error loc fmt = Format.kasprintf (fun msg -> raise (Error (loc, msg))) fmt
