(** Wire protocol for `alice serve` (see the interface for the request
    and response shapes). Parsing is strict about structure — unknown
    operations and version mismatches are rejected up front with
    structured errors — but lenient about extra fields, so clients may
    decorate requests freely. *)

module J = Alice_config.Json_lite
module D = Alice_diag.Diag

let version = 1

(* minor 1: streaming sweeps; minor 2: measured-selection attack fields
   on redact/sweep responses and the stats "attacks" object; minor 3:
   solver-reuse counter and per-candidate attack verdicts on redact
   responses; minor 4: the advise op (streaming rows reuse the minor-1
   row/done framing) and the "metrics" object on sweep/advise rows *)
let minor = 4

(* the minor that introduced each gated response field; a field not
   listed is sent at every minor *)
let field_minors =
  [ ("attack", 2); ("attacks_run", 2); ("attacks_cached", 2);
    ("attacks_inconclusive", 2); ("reused", 3); ("verdicts", 3);
    ("metrics", 4) ]

let gate ~(minor : int) (fields : (string * 'a) list) : (string * 'a) list =
  List.filter
    (fun (k, _) ->
      match List.assoc_opt k field_minors with
      | Some introduced -> introduced <= minor
      | None -> true)
    fields

type source = Inline of string | Path of string

type op =
  | Ping
  | Stats
  | Shutdown
  | Redact of { source : source; config : J.t; view : Alice.Redact.view }
  | Characterize of { source : source; config : J.t }
  | Sweep of
      { source : source; base : J.t; entries : J.t list; stream : bool }
  | Advise of
      { source : source; base : J.t; constraints : J.t; stream : bool }
  | CacheGc of { max_bytes : int option }

type request = { id : J.t; minor : int; op : op }

exception Bad_request of { kind : string; diag : D.t }

let bad_request ~kind ~code fmt =
  Format.kasprintf
    (fun m ->
      raise (Bad_request { kind; diag = D.error ~code "%s" m }))
    fmt

let op_name = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Shutdown -> "shutdown"
  | Redact _ -> "redact"
  | Characterize _ -> "characterize"
  | Sweep _ -> "sweep"
  | Advise _ -> "advise"
  | CacheGc _ -> "cache-gc"

type lane = Cheap | Heavy

let lane_of_op_name = function
  | "redact" | "characterize" | "sweep" | "advise" -> Heavy
  | _ -> Cheap

let lane_of_op op = lane_of_op_name (op_name op)

let streams ~(minor : int) = function
  | Sweep { stream; _ } -> stream && minor >= 1
  | Advise { stream; _ } -> stream && minor >= 4
  | Ping | Stats | Shutdown | Redact _ | Characterize _ | CacheGc _ -> false

(* Deliberately lenient — this runs on the acceptor against bytes it
   has only peeked at: anything that is not recognizably a heavy
   operation (including garbage, which a worker answers with a fast
   structured error) goes to the cheap lane. *)
let lane_of_line (line : string) : lane =
  match J.parse line with
  | exception _ -> Cheap
  | j -> (
    match J.find j "op" with
    | Some (J.String name) -> lane_of_op_name name
    | _ -> Cheap)

(* ---------- request parsing ---------- *)

let parse_source (j : J.t) : source =
  match (J.find j "source", J.find j "file") with
  | Some (J.String text), None -> Inline text
  | None, Some (J.String path) -> Path path
  | Some _, Some _ ->
    bad_request ~kind:"unknown_op" ~code:"E1002"
      "request carries both `source` and `file`; give exactly one"
  | _ ->
    bad_request ~kind:"unknown_op" ~code:"E1002"
      "request needs a `source` (inline Verilog text) or `file` (server-side \
       path) field"

(* an optional object field; anything else is rejected, saying what
   the field [must] be *)
let parse_doc (j : J.t) (field : string) ~(must : string) : J.t =
  match J.find j field with
  | None | Some J.Null -> J.Null
  | Some (J.Obj _ as o) -> o
  | Some _ ->
    bad_request ~kind:"unknown_op" ~code:"E1002" "`%s` must be %s" field must

let flow_keys = "an object of flow-configuration keys"

let parse_stream (j : J.t) : bool =
  match J.find j "stream" with
  | None | Some J.Null | Some (J.Bool false) -> false
  | Some (J.Bool true) -> true
  | Some _ ->
    bad_request ~kind:"unknown_op" ~code:"E1002" "`stream` must be a boolean"

let parse_view (j : J.t) : Alice.Redact.view =
  match J.find j "view" with
  | None | Some J.Null -> Alice.Redact.Programmed
  | Some (J.String "programmed") -> Alice.Redact.Programmed
  | Some (J.String "opaque") -> Alice.Redact.Opaque
  | Some (J.String "structural") -> Alice.Redact.Structural
  | Some _ ->
    bad_request ~kind:"unknown_op" ~code:"E1002"
      "`view` must be \"programmed\", \"opaque\" or \"structural\""

let parse_request (line : string) : request =
  let j =
    try J.parse line
    with J.Parse_error (_, msg) ->
      bad_request ~kind:"bad_request" ~code:"E1000" "malformed request: %s" msg
  in
  (match j with
  | J.Obj _ -> ()
  | _ ->
    bad_request ~kind:"bad_request" ~code:"E1000"
      "request must be a JSON object");
  (match J.find j "v" with
  | Some (J.Int v) when v = version -> ()
  | Some (J.Int v) ->
    bad_request ~kind:"unsupported_version" ~code:"E1001"
      "unsupported protocol version %d (this server speaks %d)" v version
  | _ ->
    bad_request ~kind:"unsupported_version" ~code:"E1001"
      "request carries no integer `v` protocol-version field");
  let req_minor =
    (* the minor version is additive: absent means the oldest client
       of this major, and anything newer than us only unlocks features
       we don't have, so it is capped rather than rejected *)
    match J.find j "mv" with
    | None | Some J.Null -> 0
    | Some (J.Int m) when m >= 0 -> min m minor
    | Some _ ->
      bad_request ~kind:"unsupported_version" ~code:"E1001"
        "`mv` must be a non-negative integer minor version"
  in
  let id = Option.value (J.find j "id") ~default:J.Null in
  let op =
    match J.find j "op" with
    | Some (J.String "ping") -> Ping
    | Some (J.String "stats") -> Stats
    | Some (J.String "shutdown") -> Shutdown
    | Some (J.String "redact") ->
      Redact
        { source = parse_source j;
          config = parse_doc j "config" ~must:flow_keys;
          view = parse_view j }
    | Some (J.String "characterize") ->
      Characterize
        { source = parse_source j;
          config = parse_doc j "config" ~must:flow_keys }
    | Some (J.String "sweep") ->
      let base = parse_doc j "base" ~must:flow_keys in
      let entries =
        match J.find j "sweep" with
        | Some (J.List (_ :: _ as items)) ->
          List.map
            (function
              | J.Obj _ as e -> e
              | _ ->
                bad_request ~kind:"unknown_op" ~code:"E1002"
                  "`sweep` entries must be objects")
            items
        | _ ->
          bad_request ~kind:"unknown_op" ~code:"E1002"
            "sweep request needs a non-empty `sweep` list of configuration \
             overlays"
      in
      Sweep { source = parse_source j; base; entries; stream = parse_stream j }
    | Some (J.String "advise") ->
      let constraints =
        parse_doc j "constraints"
          ~must:"an object (optionally carrying an `axes` map of grid axes)"
      in
      Advise
        { source = parse_source j; base = parse_doc j "base" ~must:flow_keys;
          constraints; stream = parse_stream j }
    | Some (J.String "cache-gc") ->
      CacheGc
        { max_bytes =
            (match J.find j "max_bytes" with
            | None | Some J.Null -> None
            | Some (J.Int n) when n >= 0 -> Some n
            | Some _ ->
              bad_request ~kind:"unknown_op" ~code:"E1002"
                "`max_bytes` must be a non-negative integer") }
    | Some (J.String op) ->
      bad_request ~kind:"unknown_op" ~code:"E1002"
        "unknown operation %S (have: ping, stats, shutdown, redact, \
         characterize, sweep, advise, cache-gc)"
        op
    | _ ->
      bad_request ~kind:"unknown_op" ~code:"E1002"
        "request carries no string `op` field"
  in
  { id; minor = req_minor; op }

(* ---------- response building ---------- *)

(* the diagnostic's own object, minus a null [loc] and an empty
   [context] *)
let json_of_diag (d : D.t) : J.t =
  match D.to_doc d with
  | J.Obj fields ->
    J.Obj
      (List.filter
         (function _, (J.Null | J.Obj []) -> false | _ -> true)
         fields)
  | doc -> doc

let base_fields ~(id : J.t) =
  let id = match id with J.Null -> [] | id -> [ ("id", id) ] in
  ("v", J.Int version) :: ("mv", J.Int minor) :: id

let ok_response ~(id : J.t) ~(op : string) (fields : (string * J.t) list) :
    string =
  J.to_string
    (J.Obj
       (base_fields ~id
       @ [ ("ok", J.Bool true); ("op", J.String op) ]
       @ fields))

let event_response ~(id : J.t) ~(op : string) ~(event : string)
    (fields : (string * J.t) list) : string =
  ok_response ~id ~op (("event", J.String event) :: fields)

let error_response ~(id : J.t) ~(kind : string) ?(op : string option)
    ?(diags : D.t list option) (diag : D.t) : string =
  let op = match op with None -> [] | Some o -> [ ("op", J.String o) ] in
  let diags =
    match diags with
    | None | Some [] -> []
    | Some ds -> [ ("diags", J.List (List.map json_of_diag ds)) ]
  in
  J.to_string
    (J.Obj
       (base_fields ~id
       @ [ ("ok", J.Bool false) ]
       @ op
       @ [ ("error",
            J.Obj
              [ ("kind", J.String kind);
                ("code", J.String diag.D.code);
                ("message", J.String diag.D.message) ]) ]
       @ diags))

(* ---------- request building (client side) ---------- *)

let simple_request ?(id = J.Null) (op : string) : string =
  J.to_string (J.Obj (base_fields ~id @ [ ("op", J.String op) ]))

let ping_request ?id () = simple_request ?id "ping"

let stats_request ?id () = simple_request ?id "stats"

let shutdown_request ?id () = simple_request ?id "shutdown"

let cache_gc_request ?(id = J.Null) ?max_bytes () =
  let mb =
    match max_bytes with None -> [] | Some n -> [ ("max_bytes", J.Int n) ]
  in
  J.to_string
    (J.Obj (base_fields ~id @ [ ("op", J.String "cache-gc") ] @ mb))

let source_field (source : source) =
  match source with
  | Inline text -> ("source", J.String text)
  | Path p -> ("file", J.String p)

let redact_request ?(id = J.Null) ?(config = J.Null) ?(view : string option)
    (source : source) : string =
  let config =
    match config with J.Null -> [] | c -> [ ("config", c) ]
  in
  let view = match view with None -> [] | Some v -> [ ("view", J.String v) ] in
  J.to_string
    (J.Obj
       (base_fields ~id
       @ [ ("op", J.String "redact"); source_field source ]
       @ config @ view))

let sweep_request ?(id = J.Null) ?(base = J.Null) ?(stream = false)
    ~(entries : J.t list) (source : source) : string =
  let base = match base with J.Null -> [] | b -> [ ("base", b) ] in
  let stream = if stream then [ ("stream", J.Bool true) ] else [] in
  J.to_string
    (J.Obj
       (base_fields ~id
       @ [ ("op", J.String "sweep"); source_field source ]
       @ base
       @ [ ("sweep", J.List entries) ]
       @ stream))

let advise_request ?(id = J.Null) ?(base = J.Null) ?(constraints = J.Null)
    ?(stream = false) (source : source) : string =
  let base = match base with J.Null -> [] | b -> [ ("base", b) ] in
  let constraints =
    match constraints with J.Null -> [] | c -> [ ("constraints", c) ]
  in
  let stream = if stream then [ ("stream", J.Bool true) ] else [] in
  J.to_string
    (J.Obj
       (base_fields ~id
       @ [ ("op", J.String "advise"); source_field source ]
       @ base @ constraints @ stream))
