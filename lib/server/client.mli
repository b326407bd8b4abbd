(** Client side of the `alice serve` protocol: connect to the daemon —
    a Unix-domain socket or a TCP endpoint, in {!Endpoint} grammar —
    and exchange newline-delimited request/response lines. One
    connection may carry any number of sequential requests, so
    latency-sensitive callers amortize the connect.

    {!one_shot} optionally retries with exponential backoff and
    deterministic decorrelated jitter — on connection failures and on
    the two refusals that mean "later is different" ([E1003] busy,
    [E1004] draining) — which is what makes `alice client` safe to
    script in loops against a loaded or restarting server.

    Fault-injection sites: ["sock.connect"] (a firing rule fails
    {!connect} with {!Connection_error}) and ["client.rpc"] (likewise
    for {!rpc}); both are retried by a retry policy like any genuine
    connection failure. *)

(** Raised when the server closes the connection without a response
    (e.g. it was killed mid-request) or the socket cannot be reached;
    carries a human-readable reason. *)
exception Connection_error of string

type t

(** [connect ~socket ()] opens a connection. [socket] is an endpoint
    in {!Endpoint.parse} grammar ([unix:/path], [tcp:HOST:PORT], or a
    bare Unix-socket path). [timeout_s] (default 60) bounds each
    response wait; one that is not positive and finite raises
    [Invalid_argument] before any socket is opened. TCP connections get
    [TCP_NODELAY]. [faults] defaults to {!Alice_fault.Fault.global}.
    Raises {!Connection_error} (including on a malformed endpoint). *)
val connect :
  ?timeout_s:float -> ?faults:Alice_fault.Fault.t -> socket:string -> unit -> t

(** [rpc t line] sends one request line and returns the response line.
    Raises {!Connection_error} on a dead connection or timeout. *)
val rpc : t -> string -> string

(** [rpc_stream t ~on_event line] sends one request line and reads
    frames until the terminal one, which it returns; every
    intermediate [event:"row"] frame is passed (as its raw line) to
    [on_event] in order. A non-streaming response — an old server, or
    a server that negotiated the buffered form — simply yields no
    events. An exception from [on_event] propagates, leaving the
    connection mid-stream (close it). *)
val rpc_stream : t -> on_event:(string -> unit) -> string -> string

val close : t -> unit

(** Retry policy for {!one_shot}. *)
type retry = {
  attempts : int;         (** total tries, including the first; >= 1 *)
  base_delay_s : float;   (** floor of every backoff delay *)
  max_delay_s : float;    (** cap on any single delay *)
  deadline_s : float option;
      (** total wall-clock cap: an attempt whose preceding sleep would
          cross it is not made, and the last failure is returned *)
  seed : int;  (** jitter seed: same seed, same schedule *)
}

(** 5 attempts, 50 ms base, 1.6 s cap, no deadline, seed 0. *)
val default_retry : retry

(** Every delay {!delays} produces is at least this (1 ms), whatever
    the policy's [base_delay_s] says: a zero base would collapse the
    whole schedule to zero — a hot retry loop against a server that
    refused us precisely because it is overloaded. *)
val min_base_delay_s : float

(** The backoff schedule a policy produces: [attempts - 1] delays in
    seconds, deterministic in [seed] (decorrelated jitter — each delay
    drawn between the base and thrice the previous one, capped; the
    base itself is floored at {!min_base_delay_s}). Exposed so tests
    can assert the schedule instead of sleeping. *)
val delays : retry -> float list

(** [one_shot ~socket line] is connect / {!rpc} / close. With [retry],
    connection errors and [E1003]/[E1004] refusals are retried on the
    policy's backoff schedule; the first conclusive response is
    returned, and when every attempt fails the last refusal is returned
    (or the last {!Connection_error} re-raised). With [on_event],
    streaming frames are delivered as in {!rpc_stream} — but an attempt
    that already emitted events is never retried (the rows were already
    delivered once). *)
val one_shot :
  ?timeout_s:float -> ?retry:retry -> ?faults:Alice_fault.Fault.t ->
  ?on_event:(string -> unit) -> socket:string -> string -> string
