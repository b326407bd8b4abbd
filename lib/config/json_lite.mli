(** The one document tree of ALICE: YAML configuration files
    ({!Yaml_lite.parse}), the newline-delimited server protocol (see
    [Alice_server.Protocol]) and JSON diagnostics all build and read
    this type, so a key means the same in a YAML file and a JSON request
    and fails with the same message in both.

    The full JSON grammar is supported on input (objects, arrays,
    strings with escapes including [\uXXXX], numbers, booleans, null);
    the printer emits compact single-line JSON (no literal newlines and
    no trailing whitespace), so a printed document is always a valid
    NDJSON frame. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** key order preserved *)

exception Parse_error of int * string  (** line number, message *)

(** Parse one JSON document. Trailing content after the document (other
    than whitespace) is an error. Raises {!Parse_error}. *)
val parse : string -> t

(** Compact single-line rendering: UTF-8 passes through, control
    characters and ["\\]/["\""] are escaped ([\b], [\f], [\n], [\r],
    [\t], else [\u00XX]), [Int] prints without a decimal point,
    non-finite floats degrade to [null]. *)
val to_string : t -> string

(** Look up a key in an [Obj] node; [None] for other nodes or absent
    keys. *)
val find : t -> string -> t option

(** An optional mapping: the [Obj] under [key], or [Null] when the key
    is absent or null, which every accessor reads as all defaults.
    Raises [Invalid_argument "<key>: expected a mapping"] on any other
    node. *)
val get_obj : t -> string -> t

(** Typed accessors: return the value under [key], the [default] when
    the key is absent or null, and raise [Invalid_argument] on a type
    mismatch (or a missing key without default). [get_int] refuses a
    float, as [get_int_list] does, naming the float or string it got;
    [get_float] promotes an int. *)

val get_int : ?default:int -> t -> string -> int

val get_float : ?default:float -> t -> string -> float

val get_string : ?default:string -> t -> string -> string

val get_bool : ?default:bool -> t -> string -> bool

val get_string_list : ?default:string list -> t -> string -> string list

(** A list of ints; a bare scalar is accepted as a one-element list
    (so [lut_inputs: 4] and [lut_inputs: \[4, 6\]] both work as sweep
    axes). *)
val get_int_list : ?default:int list -> t -> string -> int list

(** A list of floats; ints are promoted, a bare scalar is accepted as a
    one-element list. *)
val get_float_list : ?default:float list -> t -> string -> float list

(** [merge base overlay] deep-merges two documents: objects are merged
    key by key (recursively; base key order kept, overlay-only keys
    appended), any other overlay node replaces the base node, and a
    [Null] overlay leaves the base value untouched. Used to expand a
    sweep entry or a served request's configuration over its base. *)
val merge : t -> t -> t
