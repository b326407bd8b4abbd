(** A minimal YAML-subset parser, sufficient for ALICE configuration
    files: nested block maps, block lists, scalars, [#] comments, inline
    flow lists. Anchors, aliases, multi-documents, block scalars and
    inline flow maps are not supported. Documents parse into the
    {!Json_lite} tree (a block map becomes an [Obj]), whose accessors
    read them. *)

exception Parse_error of int * string  (** line number, message *)

(** Parse a document. Raises {!Parse_error}, also on an unquoted [{]
    that starts a value or a list item (an inline flow map) and on a
    key repeated in one map (at the repeat's line). *)
val parse : string -> Json_lite.t
