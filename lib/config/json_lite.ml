(** The one document tree (see the interface): a minimal JSON parser
    and printer plus the typed accessors every configuration reader
    uses. The parser is a plain recursive-descent scanner over the input
    string; the printer always emits one line. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of int * string (* line number, message *)

(* ---------- parsing ---------- *)

type state = { src : string; mutable pos : int; mutable line : int }

let error st fmt =
  Format.kasprintf (fun m -> raise (Parse_error (st.line, m))) fmt

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st =
  (match peek st with Some '\n' -> st.line <- st.line + 1 | _ -> ());
  st.pos <- st.pos + 1

let skip_ws st =
  let rec go () =
    match peek st with
    | Some (' ' | '\t' | '\r' | '\n') ->
      advance st;
      go ()
    | _ -> ()
  in
  go ()

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | Some d -> error st "expected %C, found %C" c d
  | None -> error st "expected %C, found end of input" c

(* utf-8 encode one scalar value (the \uXXXX path) *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek st with
    | Some ('0' .. '9' as c) -> v := (!v * 16) + (Char.code c - Char.code '0')
    | Some ('a' .. 'f' as c) -> v := (!v * 16) + (Char.code c - Char.code 'a' + 10)
    | Some ('A' .. 'F' as c) -> v := (!v * 16) + (Char.code c - Char.code 'A' + 10)
    | Some c -> error st "invalid hex digit %C in \\u escape" c
    | None -> error st "unterminated \\u escape");
    advance st
  done;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' ->
      advance st;
      Buffer.contents buf
    | Some '\\' -> (
      advance st;
      match peek st with
      | None -> error st "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let cp = parse_hex4 st in
          (* combine a high+low surrogate pair; a lone surrogate
             degrades to U+FFFD rather than emitting invalid UTF-8 *)
          if cp >= 0xD800 && cp <= 0xDBFF then begin
            if st.pos + 1 < String.length st.src
               && st.src.[st.pos] = '\\'
               && st.src.[st.pos + 1] = 'u'
            then begin
              advance st;
              advance st;
              let lo = parse_hex4 st in
              if lo >= 0xDC00 && lo <= 0xDFFF then
                add_utf8 buf
                  (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
              else begin
                add_utf8 buf 0xFFFD;
                add_utf8 buf lo
              end
            end
            else add_utf8 buf 0xFFFD
          end
          else if cp >= 0xDC00 && cp <= 0xDFFF then add_utf8 buf 0xFFFD
          else add_utf8 buf cp
        | c -> error st "invalid escape \\%C" c);
        go ())
    | Some c when Char.code c < 0x20 ->
      error st "unescaped control character (code %d) in string" (Char.code c)
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> is_num_char c | None -> false) do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> error st "invalid number %S" s)

let expect_word st w value =
  let n = String.length w in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = w then begin
    st.pos <- st.pos + n;
    value
  end
  else error st "invalid token"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          members ((key, v) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((key, v) :: acc)
        | Some c -> error st "expected ',' or '}' in object, found %C" c
        | None -> error st "unterminated object"
      in
      Obj (members [])
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let rec elements acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elements (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | Some c -> error st "expected ',' or ']' in array, found %C" c
        | None -> error st "unterminated array"
      in
      List (elements [])
    end
  | Some '"' -> String (parse_string st)
  | Some 't' -> expect_word st "true" (Bool true)
  | Some 'f' -> expect_word st "false" (Bool false)
  | Some 'n' -> expect_word st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> error st "unexpected character %C" c

let parse (src : string) : t =
  let st = { src; pos = 0; line = 1 } in
  let v = parse_value st in
  skip_ws st;
  (match peek st with
  | None -> ()
  | Some c -> error st "trailing content after document (%C)" c);
  v

(* ---------- printing ---------- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_string (v : t) : string =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      if Float.is_finite f then begin
        (* round-trippable and never bare ("1." is not valid JSON) *)
        let s = Printf.sprintf "%.17g" f in
        let s = if float_of_string s = f then s else Printf.sprintf "%h" f in
        let s =
          if String.contains s '.' || String.contains s 'e'
             || String.contains s 'E' || String.contains s 'x'
          then s
          else s ^ ".0"
        in
        (* %h hex floats are not JSON; fall back to a plain decimal *)
        if String.contains s 'x' then
          Buffer.add_string buf (Printf.sprintf "%.17e" f)
        else Buffer.add_string buf s
      end
      else Buffer.add_string buf "null"
    | String s -> escape_string buf s
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          go item)
        items;
      Buffer.add_char buf ']'
    | Obj members ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          go item)
        members;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* ---------- accessors ---------- *)

let find (doc : t) key : t option =
  match doc with
  | Obj kvs -> List.assoc_opt key kvs
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

(* The lookup every typed accessor shares: an absent or null [key] is
   the [default], absent without one is an error, and any other node
   goes to [convert], which raises on a type mismatch. *)
let get ?default doc key convert =
  match (find doc key, default) with
  | (Some Null | None), Some d -> d
  | None, None -> invalid_arg (Printf.sprintf "missing key %s" key)
  | Some node, _ -> convert node

let get_obj doc key =
  get ~default:Null doc key (function
    | Obj _ as m -> m
    | Null | Bool _ | Int _ | Float _ | String _ | List _ ->
      invalid_arg (Printf.sprintf "%s: expected a mapping" key))

let mismatch key what =
  invalid_arg (Printf.sprintf "key %s: expected %s" key what)

let get_int ?default doc key =
  get ?default doc key (function
    | Int i -> i
    | Float f -> mismatch key (Printf.sprintf "int, got float %g" f)
    | String s -> mismatch key ("int, got string " ^ s)
    | Null | Bool _ | List _ | Obj _ -> mismatch key "int, got non-int")

let get_float ?default doc key =
  get ?default doc key (function
    | Float f -> f
    | Int i -> float_of_int i
    | Null | Bool _ | String _ | List _ | Obj _ -> mismatch key "float")

let get_string ?default doc key =
  get ?default doc key (function String s -> s | _ -> mismatch key "string")

let get_bool ?default doc key =
  get ?default doc key (function Bool b -> b | _ -> mismatch key "bool")

let get_string_list ?default doc key =
  get ?default doc key (function
    | List items ->
      List.map
        (function
          | String s -> s
          | Int i -> string_of_int i
          | Null | Bool _ | Float _ | List _ | Obj _ ->
            mismatch key "list of strings")
        items
    | String s -> [ s ]
    | Null | Bool _ | Int _ | Float _ | Obj _ -> mismatch key "list")

let get_int_list ?default doc key =
  get ?default doc key (function
    | List items ->
      List.map (function Int i -> i | _ -> mismatch key "list of ints") items
    | Int i -> [ i ]
    | _ -> mismatch key "list of ints")

let get_float_list ?default doc key =
  let number = function
    | Float f -> f
    | Int i -> float_of_int i
    | _ -> mismatch key "list of numbers"
  in
  get ?default doc key (function
    | List items -> List.map number items
    | scalar -> [ number scalar ])

let rec merge (base : t) (overlay : t) : t =
  match (base, overlay) with
  | Obj bs, Obj os ->
    (* base key order kept, overlay-only keys appended in their order *)
    let merged =
      List.map
        (fun (k, bv) ->
          match List.assoc_opt k os with
          | Some ov -> (k, merge bv ov)
          | None -> (k, bv))
        bs
    in
    let fresh = List.filter (fun (k, _) -> not (List.mem_assoc k bs)) os in
    Obj (merged @ fresh)
  | _, Null -> base
  | _, overlay -> overlay
