(** Structured diagnostics for the whole ALICE flow.

    A diagnostic is data, not control flow: a severity, a stable code,
    a human message, an optional source location and a list of
    machine-readable context fields. Layers *record* diagnostics into a
    {!Collector} and degrade gracefully instead of aborting; the CLI
    renders the collected list as text or JSON and derives its exit
    code from the worst severity seen.

    Code ranges (stable; see DESIGN.md "Error handling & diagnostics"):
    - [E00xx] driver / file I/O
    - [E01xx] Verilog front end (E0101 lex, E0102 parse, E0103 elaborate)
    - [E02xx] netlist (E0201 synthesis, E0202 combinational cycle)
    - [E03xx] fabric (E0301 does-not-fit, E0302 unroutable, E0303
      too-large, E0304 empty circuit)
    - [E04xx]/[W04xx] SAT (W0401 solver budget exhausted)
    - [E05xx]/[W05xx] security attacks (W0501 inconclusive)
    - [E06xx] configuration
    - [W07xx] resource budgets (W0701 characterization deadline)
    - [E08xx] redaction
    - [E09xx] internal failures (uncaught exceptions) *)

module Loc = Alice_verilog.Loc
module J = Alice_config.Json_lite

type severity = Error | Warning | Note

type t = {
  severity : severity;
  code : string;                     (* stable, e.g. "E0201" *)
  message : string;
  loc : Loc.t option;
  context : (string * string) list;  (* ordered key/value detail *)
}

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Note -> "note"

let make ?loc ?(context = []) severity ~code message =
  { severity; code; message; loc; context }

let error ?loc ?context ~code fmt =
  Format.kasprintf (fun m -> make ?loc ?context Error ~code m) fmt

let warning ?loc ?context ~code fmt =
  Format.kasprintf (fun m -> make ?loc ?context Warning ~code m) fmt

let note ?loc ?context ~code fmt =
  Format.kasprintf (fun m -> make ?loc ?context Note ~code m) fmt

let is_error d = d.severity = Error

(* ---------- text rendering ---------- *)

let to_string (d : t) : string =
  let b = Buffer.create 96 in
  Buffer.add_string b (severity_to_string d.severity);
  Buffer.add_char b '[';
  Buffer.add_string b d.code;
  Buffer.add_string b "]: ";
  (match d.loc with
  | Some loc ->
    Buffer.add_string b (Loc.to_string loc);
    Buffer.add_string b ": "
  | None -> ());
  Buffer.add_string b d.message;
  (match d.context with
  | [] -> ()
  | ctx ->
    Buffer.add_string b " {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b "; ";
        Buffer.add_string b k;
        Buffer.add_char b '=';
        Buffer.add_string b v)
      ctx;
    Buffer.add_char b '}');
  Buffer.contents b

let pp fmt d = Format.pp_print_string fmt (to_string d)

(* ---------- JSON rendering ---------- *)

let to_doc (d : t) : J.t =
  J.Obj
    [ ("severity", J.String (severity_to_string d.severity));
      ("code", J.String d.code);
      ("message", J.String d.message);
      ( "loc",
        match d.loc with
        | None -> J.Null
        | Some { Loc.file; line; col } ->
          J.Obj [ ("file", J.String file); ("line", J.Int line); ("col", J.Int col) ] );
      ("context", J.Obj (List.map (fun (k, v) -> (k, J.String v)) d.context)) ]

let list_to_json (ds : t list) : string = J.to_string (J.List (List.map to_doc ds))

type format = Text | Json

let render_list (format : format) (ds : t list) : string =
  match format with
  | Text -> String.concat "\n" (List.map to_string ds)
  | Json -> list_to_json ds

(* ---------- exception classification ---------- *)

(** Map an escaped exception to a diagnostic. Only exceptions every
    layer can see are classified here (located errors and the standard
    library's); layer-specific exceptions (synthesis, placement, ...)
    are classified by the layer that catches them before falling back
    to this function. *)
let of_exn ?loc (exn : exn) : t =
  match exn with
  | Loc.Error (l, msg) -> make ~loc:l Error ~code:"E0100" msg
  | Sys_error msg -> make ?loc Error ~code:"E0001" msg
  | Failure msg -> error ?loc ~code:"E0901" "internal failure: %s" msg
  | Invalid_argument msg -> error ?loc ~code:"E0902" "invalid argument: %s" msg
  | Not_found -> make ?loc Error ~code:"E0903" "internal lookup failed (Not_found)"
  | Stack_overflow -> make ?loc Error ~code:"E0904" "stack overflow (runaway recursion)"
  | Assert_failure (file, line, col) ->
    error ?loc ~code:"E0905" "assertion failed at %s:%d:%d" file line col
  | e -> error ?loc ~code:"E0900" "unexpected exception: %s" (Printexc.to_string e)

(* ---------- collector ---------- *)

module Collector = struct
  type diag = t

  type t = { mutable rev_items : diag list }

  let create () = { rev_items = [] }

  let add c d = c.rev_items <- d :: c.rev_items

  let list c = List.rev c.rev_items

  let is_empty c = c.rev_items = []

  let error_count c =
    List.fold_left (fun n d -> if is_error d then n + 1 else n) 0 c.rev_items

  let has_errors c = error_count c > 0
end
