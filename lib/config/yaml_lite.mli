(** A minimal YAML-subset parser, sufficient for ALICE configuration
    files: nested block maps, block lists, scalars, [#] comments, inline
    flow lists. Anchors, aliases, multi-documents and block scalars are
    not supported. Documents parse into the {!Json_lite} tree (a block
    map becomes an [Obj]), whose accessors read them. *)

exception Parse_error of int * string  (** line number, message *)

(** Parse a document. Raises {!Parse_error}. *)
val parse : string -> Json_lite.t
