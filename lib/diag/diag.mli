(** Structured diagnostics for the whole ALICE flow.

    A diagnostic is data, not control flow: a severity, a stable code,
    a human message, an optional source location and ordered context
    fields. Layers record diagnostics into a {!Collector} and degrade
    gracefully instead of aborting; the CLI renders the collected list
    as text or JSON and derives its exit code from the worst severity.

    Stable code ranges (documented in DESIGN.md):
    [E00xx] driver/IO · [E01xx] Verilog front end · [E02xx] netlist ·
    [E03xx] fabric · [E/W04xx] SAT · [E/W05xx] attacks · [E06xx]
    configuration · [W07xx] resource budgets and caching ([W0701]
    deadline skip, [W0702] unusable cache entry, [W0703] cache write
    failure) · [E08xx] redaction · [E09xx] internal failures. *)

module Loc = Alice_verilog.Loc
module J = Alice_config.Json_lite

type severity = Error | Warning | Note

type t = {
  severity : severity;
  code : string;  (** stable, e.g. ["E0201"] *)
  message : string;
  loc : Loc.t option;
  context : (string * string) list;  (** ordered key/value detail *)
}

val make :
  ?loc:Loc.t -> ?context:(string * string) list ->
  severity -> code:string -> string -> t

(** [error ~code fmt ...] builds an [Error] diagnostic with a formatted
    message; {!warning} and {!note} likewise. *)
val error :
  ?loc:Loc.t -> ?context:(string * string) list ->
  code:string -> ('a, Format.formatter, unit, t) format4 -> 'a

val warning :
  ?loc:Loc.t -> ?context:(string * string) list ->
  code:string -> ('a, Format.formatter, unit, t) format4 -> 'a

val note :
  ?loc:Loc.t -> ?context:(string * string) list ->
  code:string -> ('a, Format.formatter, unit, t) format4 -> 'a

val is_error : t -> bool

(** ["error[E0201]: file:3:1: message {k=v; ...}"] *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** One JSON object with [severity]/[code]/[message]/[loc]/[context]
    fields, in that order: [loc] is [null] or a [file]/[line]/[col]
    object, [context] an object of strings (empty when there is none). *)
val to_doc : t -> J.t

(** A JSON array of {!to_doc} objects, printed by
    {!Alice_config.Json_lite.to_string}. *)
val list_to_json : t list -> string

(** Output format selector for renderers and the CLI [--diag-format]. *)
type format = Text | Json

val render_list : format -> t list -> string

(** Classify an escaped exception. Located errors keep their location
    and code [E0100]; standard-library exceptions map into [E09xx]
    (internal); anything else is [E0900]. Layer-specific exceptions
    should be matched by the catching layer first. *)
val of_exn : ?loc:Loc.t -> exn -> t

(** Mutable, append-only diagnostic accumulator (insertion order kept). *)
module Collector : sig
  type diag = t

  type t

  val create : unit -> t

  val add : t -> diag -> unit

  (** Diagnostics in insertion order. *)
  val list : t -> diag list

  val is_empty : t -> bool

  val error_count : t -> int

  val has_errors : t -> bool
end
