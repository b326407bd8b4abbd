(** The versioned `alice serve` wire protocol: newline-delimited JSON
    over a Unix-domain socket, one request object per line, one
    response object per line, several requests per connection.

    Requests carry a protocol version ([{"v":1,...}]), an operation
    ([op]), an optional correlation [id] echoed verbatim in the
    response, and operation-specific fields:

    {v
    {"v":1,"id":"r1","op":"ping"}
    {"v":1,"op":"redact","source":"module m...","config":{"max_efpgas":1}}
    {"v":1,"op":"redact","file":"designs/gcd.v","view":"opaque"}
    {"v":1,"op":"characterize","source":"..."}
    {"v":1,"op":"sweep","source":"...","sweep":[{"name":"a","max_efpgas":1}]}
    {"v":1,"op":"advise","file":"designs/gcd.v","constraints":{"axes":{"lut_inputs":[4,6]}}}
    {"v":1,"op":"stats"}
    {"v":1,"op":"cache-gc","max_bytes":1048576}
    {"v":1,"op":"shutdown"}
    v}

    Responses are [{"v":1,"id":...,"ok":true,"op":...,...}] on success
    and [{"v":1,"id":...,"ok":false,"error":{"kind":...,"code":...,
    "message":...},"diags":[...]}] on failure; error codes reuse the
    {!Alice_diag.Diag} registry (flow errors keep their own codes, the
    server adds the [E10xx] range: [E1000] malformed request, [E1001]
    unsupported version, [E1002] unknown/invalid operation, [E1003]
    busy — admission control rejected the connection, [E1004] shutting
    down, [E1005] worker crash — logged and counted server-side, never
    sent as a response, [E1006] cache-gc on a cache-less server). *)

module J = Alice_config.Json_lite
module D = Alice_diag.Diag

(** Bumped on any incompatible change to request or response shapes.
    Requests carrying any other [v] are rejected with [E1001]. *)
val version : int

(** Additive feature level within {!version}, carried as [mv] in
    requests and responses. Absent means 0. Minor 1 adds streaming
    sweep responses: a sweep request with [{"mv":1,...,"stream":true}]
    is answered with one [{"ok":true,"op":"sweep","event":"row",...}]
    line per completed point followed by a terminal
    [{"event":"done",...}] summary frame; clients announcing a lower
    (or no) minor always get the buffered single-line form, whatever
    they asked for. Minor 2 adds measured-selection attack accounting:
    an [{"attack":{"run":..,"cached":..,"inconclusive":..}}] object on
    [redact] responses, [attacks_run]/[attacks_cached]/
    [attacks_inconclusive] fields on sweep rows, and a top-level
    [attacks] object in [stats] (the [stats] object is reported to
    every client — only the redact/sweep fields are gated on the
    announced minor). Minor 3 adds the incremental solver's
    learnt-clause reuse to the redact [attack] object ([reused]) plus a
    per-candidate [verdicts] array
    ([{"cluster":..,"fabric":..,"status":..,"dips":..,"conflicts":..,
    "reused":..}] per valid fabric implementation). Minor 4 adds the
    [advise] operation — a pre-architecture recommendation sweep whose
    streaming form reuses the minor-1 row/done framing (one
    [{"event":"row",...}] per candidate as it completes, then a
    [{"event":"done","front":[...],...}] frame with the ranked Pareto
    front; clients announcing [mv < 4] get the buffered single-line
    form even when they ask to stream) — and a [metrics] object
    ([area_um2]/[timing_ns]/[security]/[security_mode]) on sweep and
    advise rows. A request [mv] above the server's is capped, not
    rejected — minors only ever add behaviour. *)
val minor : int

(** [gate ~minor fields] drops every response field introduced after
    the client's announced [minor]: [attack] and the sweep-row
    [attacks_run]/[attacks_cached]/[attacks_inconclusive] at 2,
    [reused] and [verdicts] at 3, [metrics] at 4. Other fields pass at
    every minor. It filters one object's own fields, not nested ones. *)
val gate : minor:int -> (string * 'a) list -> (string * 'a) list

(** Where a request's Verilog comes from: inline text in the request
    itself, or a path readable by the server process. *)
type source = Inline of string | Path of string

type op =
  | Ping
  | Stats
  | Shutdown
  | Redact of { source : source; config : J.t; view : Alice.Redact.view }
  | Characterize of { source : source; config : J.t }
  | Sweep of
      { source : source; base : J.t; entries : J.t list; stream : bool }
      (** [entries] are configuration overlays, each deep-merged over
          [base] (itself merged over the server's base configuration);
          an entry's [name] key labels its result row. [stream] asks
          for incremental row events — honoured only when the request
          also announces [mv >= 1] (see {!minor}) *)
  | Advise of
      { source : source; base : J.t; constraints : J.t; stream : bool }
      (** pre-architecture advisor ([Alice.Advisor]): [base] is a
          flow-configuration overlay over the server's base
          configuration, [constraints] an optional constraint document
          whose [axes] map pins the grid axes, [stream] asks for
          per-candidate row events — honoured only when the request
          also announces [mv >= 4] (see {!minor}) *)
  | CacheGc of { max_bytes : int option }
      (** validate/quarantine/evict the server's persistent cache and
          re-enable writes; [max_bytes] overrides the configured byte
          budget for this pass *)

type request = {
  id : J.t;  (** echoed in the response; [Null] when absent *)
  minor : int;
      (** the client's announced feature level, capped at {!minor};
          0 when the request carries no [mv] *)
  op : op;
}

(** Raised by {!parse_request} on a request the server cannot execute;
    [kind] is the machine-readable category carried in the error
    payload ("bad_request", "unsupported_version", "unknown_op"). *)
exception Bad_request of { kind : string; diag : D.t }

val op_name : op -> string

(** Whether the request is answered incrementally: a [sweep] asking to
    [stream] from minor 1, an [advise] asking to [stream] from minor 4.
    Every other request, and any request whose minor predates its
    streaming form, gets one buffered line. *)
val streams : minor:int -> op -> bool

(** The two admission lanes of the server's priority queue. [Cheap]
    operations ([ping], [stats], [cache-gc], [shutdown] — and malformed
    requests, which cost one error line) answer in microseconds and
    must never wait behind a saturating sweep; [Heavy] operations
    ([redact], [characterize], [sweep], [advise]) run the flow. *)
type lane = Cheap | Heavy

val lane_of_op : op -> lane

(** Classify a raw request line the way the server's acceptor does on
    peeked bytes: [Heavy] only when the line is valid JSON whose [op]
    names a heavy operation; everything else — cheap operations,
    garbage, incomplete framing — is [Cheap]. Never raises. *)
val lane_of_line : string -> lane

(** Parse one request line. Raises {!Bad_request}. *)
val parse_request : string -> request

(** {2 Response building} *)

(** A diagnostic as {!Alice_diag.Diag.to_doc} builds it, without a
    [null] [loc] or an empty [context]. *)
val json_of_diag : D.t -> J.t

(** [ok_response ~id ~op fields] is one response line (no trailing
    newline): [ok:true] plus the operation name and the given fields. *)
val ok_response : id:J.t -> op:string -> (string * J.t) list -> string

(** [event_response ~id ~op ~event fields] is one intermediate frame
    of a streaming response: an [ok:true] line carrying an [event]
    discriminator ("row" for incremental results, "done" for the
    terminal summary). Non-terminal frames are only ever sent to
    clients that announced [mv >= 1]. *)
val event_response :
  id:J.t -> op:string -> event:string -> (string * J.t) list -> string

(** [error_response ~id ~kind ?op ?diags diag] is one [ok:false]
    response line; the error object's [code]/[message] come from
    [diag], and [diags], when given, carries the run's full diagnostic
    list. *)
val error_response :
  id:J.t -> kind:string -> ?op:string -> ?diags:D.t list -> D.t -> string

(** {2 Request building (client side)} *)

(** [redact_request ?id ?config ?view source] renders a redact request
    line; [config] is a raw JSON configuration object. [ping_request],
    [stats_request] and [shutdown_request] likewise. *)
val redact_request :
  ?id:J.t -> ?config:J.t -> ?view:string -> source -> string

val ping_request : ?id:J.t -> unit -> string

val stats_request : ?id:J.t -> unit -> string

val shutdown_request : ?id:J.t -> unit -> string

val cache_gc_request : ?id:J.t -> ?max_bytes:int -> unit -> string

(** [sweep_request ?id ?base ?stream ~entries source] renders a sweep
    request line; [entries] are raw JSON overlay objects and [stream]
    (default false) asks for incremental row events. *)
val sweep_request :
  ?id:J.t -> ?base:J.t -> ?stream:bool -> entries:J.t list -> source -> string

(** [advise_request ?id ?base ?constraints ?stream source] renders an
    advise request line; [base] is a raw JSON configuration object,
    [constraints] a raw JSON constraint document (optionally carrying
    an [axes] map), and [stream] (default false) asks for per-candidate
    row events. *)
val advise_request :
  ?id:J.t -> ?base:J.t -> ?constraints:J.t -> ?stream:bool -> source -> string
