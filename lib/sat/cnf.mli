(** CNF formula representation. Variables are positive integers; a
    literal is [+v] (true) or [-v] (false), DIMACS style. *)

type lit = int

type clause = lit array

type t

val create : unit -> t

val fresh_var : t -> int

val fresh_vars : t -> int -> int array

(** Raises [Assert_failure] on zero or out-of-range literals. *)
val add_clause : t -> lit list -> unit

val add_unit : t -> lit -> unit

(** [iter_from f n g] applies [g] to every clause added at position
    [>= n] (0-based), in addition order: the delta since a caller last
    looked, read in place by the incremental solver's sync. [g] must not
    mutate the clause. *)
val iter_from : t -> int -> (clause -> unit) -> unit

val var_count : t -> int

val clause_count : t -> int

(** Standard gate encodings. *)

val encode_and : t -> out:lit -> a:lit -> b:lit -> unit

val encode_or : t -> out:lit -> a:lit -> b:lit -> unit

val encode_xor : t -> out:lit -> a:lit -> b:lit -> unit

val encode_not : t -> out:lit -> a:lit -> unit

val encode_eq : t -> a:lit -> b:lit -> unit

(** [out <-> (sel ? b : a)] *)
val encode_mux : t -> out:lit -> sel:lit -> a:lit -> b:lit -> unit
