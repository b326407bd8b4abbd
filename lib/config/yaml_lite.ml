(** A minimal YAML-subset parser, sufficient for ALICE configuration files.

    Supported: nested block maps, block lists ([- item]), scalars
    (int, float, bool, null, quoted and bare strings), [#] comments and
    blank lines, inline flow lists ([\[a, b\]]). Anchors, aliases,
    multi-documents, block scalars and inline flow maps ([{a: 1}]) are
    not supported; an unquoted [{] starting a value or a list item is a
    parse error rather than a string. The result is the {!Json_lite}
    document tree; block maps become [Obj]. *)

module J = Json_lite

exception Parse_error of int * string  (* line number, message *)

let error line fmt = Format.kasprintf (fun m -> raise (Parse_error (line, m))) fmt

(* ---------- scalar parsing ---------- *)

(* Without this, a flow map would read as a string, or as a map whose
   first key starts with [{], and every key in it would be lost. *)
let refuse_flow_map line (s : string) =
  if String.length s > 0 && s.[0] = '{' then
    error line "inline {...} maps are not supported; use a block mapping"

(* the text between a matching pair of outer quotes *)
let unquote (s : string) : string option =
  let n = String.length s in
  if n >= 2 && (s.[0] = '"' || s.[0] = '\'') && s.[n - 1] = s.[0] then
    Some (String.sub s 1 (n - 2))
  else None

let parse_scalar (s : string) : J.t =
  let s = String.trim s in
  match unquote s with
  | Some text -> J.String text
  | None when s = "" || s = "~" || s = "null" -> J.Null
  | None when s = "true" || s = "yes" -> J.Bool true
  | None when s = "false" || s = "no" -> J.Bool false
  | None -> (
    match int_of_string_opt s with
    | Some i -> J.Int i
    | None -> (
      match float_of_string_opt s with
      | Some f -> J.Float f
      | None -> J.String s))

let rec parse_flow_value line (s : string) : J.t =
  let s = String.trim s in
  refuse_flow_map line s;
  if String.length s >= 2 && s.[0] = '[' && s.[String.length s - 1] = ']' then begin
    let inner = String.sub s 1 (String.length s - 2) in
    if String.trim inner = "" then J.List []
    else
      (* split on commas that are not nested in brackets *)
      let parts = ref [] and buf = Buffer.create 16 and depth = ref 0 in
      String.iter
        (fun c ->
          match c with
          | '[' ->
            incr depth;
            Buffer.add_char buf c
          | ']' ->
            decr depth;
            Buffer.add_char buf c
          | ',' when !depth = 0 ->
            parts := Buffer.contents buf :: !parts;
            Buffer.clear buf
          | _ -> Buffer.add_char buf c)
        inner;
      parts := Buffer.contents buf :: !parts;
      J.List (List.rev_map (parse_flow_value line) !parts)
  end
  else parse_scalar s

(* ---------- line pre-processing ---------- *)

type line = { num : int; indent : int; body : string }

(* the first index [i] outside "..." and '...' spans where [stop i depth]
   holds, [depth] counting the brackets open before [i] *)
let find_unquoted (s : string) (stop : int -> int -> bool) : int option =
  let rec find i depth quote =
    if i >= String.length s then None
    else
      match s.[i] with
      | c when quote <> None ->
        find (i + 1) depth (if Some c = quote then None else quote)
      | _ when stop i depth -> Some i
      | ('"' | '\'') as q -> find (i + 1) depth (Some q)
      | '[' -> find (i + 1) (depth + 1) None
      | ']' -> find (i + 1) (depth - 1) None
      | _ -> find (i + 1) depth None
  in
  find 0 0 None

(* a # not inside quotes starts a comment *)
let strip_comment s =
  match find_unquoted s (fun i _ -> s.[i] = '#') with
  | Some i -> String.sub s 0 i
  | None -> s

let prepare (src : string) : line list =
  String.split_on_char '\n' src
  |> List.mapi (fun i l -> (i + 1, strip_comment l))
  |> List.filter_map (fun (num, l) ->
         let trimmed = String.trim l in
         if trimmed = "" then None
         else begin
           let indent = ref 0 in
           (try
              String.iter
                (fun c ->
                  if c = ' ' then incr indent
                  else if c = '\t' then error num "tab indentation is not supported"
                  else raise Exit)
                l
            with Exit -> ());
           Some { num; indent = !indent; body = trimmed }
         end)

(* ---------- block structure ---------- *)

(* split "key: value" at the first ':' outside quotes/brackets; a quoted
   key loses its quotes *)
let split_key_value (l : line) : (string * string) option =
  let s = l.body in
  refuse_flow_map l.num s;
  let n = String.length s in
  let separator i depth = depth = 0 && s.[i] = ':' && (i + 1 >= n || s.[i + 1] = ' ') in
  match find_unquoted s separator with
  | None -> None
  | Some i ->
    let key = String.trim (String.sub s 0 i) in
    let key = Option.value (unquote key) ~default:key in
    let value = if i + 1 >= n then "" else String.sub s (i + 1) (n - i - 1) in
    Some (key, String.trim value)

let rec parse_block (lines : line list) (indent : int) : J.t * line list =
  match lines with
  | [] -> (J.Null, [])
  | first :: _ when first.indent < indent -> (J.Null, lines)
  | first :: _ ->
    if String.length first.body >= 1 && first.body.[0] = '-'
       && (String.length first.body = 1 || first.body.[1] = ' ')
    then parse_list lines first.indent
    else parse_map lines first.indent

and parse_list lines indent : J.t * line list =
  let rec loop acc = function
    | ({ indent = i; body; num } as l) :: rest
      when i = indent && String.length body >= 1 && body.[0] = '-' ->
      let item_src = String.trim (String.sub body 1 (String.length body - 1)) in
      if item_src = "" then begin
        let value, rest' = parse_block rest (indent + 1) in
        loop (value :: acc) rest'
      end
      else begin
        (* Inline item; "key: value" starts a map whose remaining keys
           sit on the following lines, aligned with the first key's
           column — re-inject the inline text as a virtual line at that
           column and let [parse_map] consume the whole item. *)
        match split_key_value { l with body = item_src } with
        | Some _ ->
          let item_indent =
            i + (String.length body - String.length item_src)
          in
          let virtual_line = { num; indent = item_indent; body = item_src } in
          let value, rest' = parse_block (virtual_line :: rest) item_indent in
          loop (value :: acc) rest'
        | None -> loop (parse_flow_value num item_src :: acc) rest
      end
    | rest -> (J.List (List.rev acc), rest)
  in
  loop [] lines

and parse_map lines indent : J.t * line list =
  let rec loop acc = function
    | ({ indent = i; _ } as l) :: rest when i = indent -> (
      match split_key_value l with
      | None -> error l.num "expected 'key: value'"
      | Some (key, value) ->
        (* readers take a key's first entry, so a repeat would be
           silently ignored; YAML requires unique keys *)
        if List.mem_assoc key acc then error l.num "duplicate key '%s'" key;
        if value = "" then begin
          let sub, rest' = parse_block rest (indent + 1) in
          loop ((key, sub) :: acc) rest'
        end
        else loop ((key, parse_flow_value l.num value) :: acc) rest)
    | rest -> (J.Obj (List.rev acc), rest)
  in
  loop [] lines

(** Parse a YAML-subset document. Raises {!Parse_error}. *)
let parse (src : string) : J.t =
  match prepare src with
  | [] -> J.Null
  | first :: _ as lines -> (
    let value, rest = parse_block lines first.indent in
    match rest with
    | [] -> value
    | l :: _ -> error l.num "trailing content at unexpected indentation")
