(** The long-lived redaction service behind `alice serve`: a daemon
    speaking the newline-delimited {!Protocol} over one or more
    {!Endpoint}s — Unix-domain sockets and/or TCP — executing every
    request against one shared {!Alice.Engine} so the in-memory memo
    table and the persistent disk cache are shared across all requests
    and all clients. The protocol is byte-identical over both
    transports; an endpoint only decides the socket family.

    {2 Concurrency, admission control and priority lanes}

    A fixed pool of [max_in_flight] worker threads serves connections;
    characterization inside each request still fans out across the
    configuration's [jobs] worker domains ({!Alice_parallel.Pool}), so
    the two axes compose: connection concurrency × per-request domain
    parallelism. One acceptor thread multiplexes every listener, admits
    connections into a bounded hand-off queue, and classifies each
    admitted connection — by peeking (without consuming) its first
    request line — into one of two lanes: {e cheap}
    ([ping]/[stats]/[cache-gc]/[shutdown], and malformed requests) or
    {e heavy} ([redact]/[characterize]/[sweep]/[advise]). With two or more
    workers, one is reserved for the cheap lane, so a saturating sweep
    load can never starve health checks; the remaining workers drain
    the cheap lane first, then the heavy one. A connection's lane is
    fixed by its first request (one-shot clients, the common case, send
    exactly one). Once [active + queued] reaches
    [max_in_flight + max_queue], new connections are refused
    immediately with a structured [busy] error ([E1003]) instead of
    queuing without bound — load sheds at the door, never by hanging.
    [stats] reports the per-lane queue depths.

    {2 Streaming sweeps and advice}

    A [sweep] request that sets [stream:true] and announces protocol
    minor [mv >= 1] is answered incrementally: one
    [{"ok":true,"op":"sweep","event":"row",...}] line per completed
    point, then a terminal [{"event":"done",...}] summary frame. An
    [advise] request streams the same way from [mv >= 4]: one row per
    candidate, then a done frame carrying the ranked Pareto front. Rows
    are emitted after their checkpoint is written, so a client that
    hangs up mid-sweep wastes at most the point in flight — a rerun
    resumes the rest from the sweep store. Clients below those minors
    get the buffered single-line form whatever they asked for
    ({!Protocol.streams}).

    {2 Deadlines and drain}

    A server-wide [deadline_s] is injected as the request
    configuration's [characterize_deadline_s] when the request does not
    set one, so an expensive design degrades to deadline-skip
    diagnostics ([W0701]) instead of monopolizing a worker. On SIGTERM,
    SIGINT or a [shutdown] request the server stops accepting (new
    connections get [E1004]), finishes every admitted request, removes
    its Unix socket files and returns from {!wait} — a clean drain,
    never a dropped in-flight response.

    Results are byte-identical to single-shot `alice redact` on the
    same input: the engine only changes whether CreateEFPGA runs again,
    never what a flow computes. *)

module A = Alice
module C = Alice_config
module J = Alice_config.Json_lite

type config = {
  listen : Endpoint.t list;
      (** endpoints to listen on, all multiplexed by one acceptor;
          at least one. [tcp:HOST:0] binds an ephemeral port — read it
          back from {!endpoints} *)
  max_in_flight : int;  (** worker threads; at least 1 *)
  max_queue : int;  (** admitted connections awaiting a worker; >= 0 *)
  base : J.t;
      (** flow-configuration document merged under every request's
          inline [config] (request keys win) *)
  jobs : int option;
      (** when set, overrides every request configuration's [jobs] —
          the operator's cap on per-request domain parallelism *)
  deadline_s : float option;
      (** default per-request characterization deadline; a request
          configuration's own [characterize_deadline_s] wins *)
  idle_timeout_s : float;
      (** per-connection receive timeout: a connection idle this long
          between requests (or before its first) is closed, so dead
          clients cannot pin a worker or stall the shutdown drain *)
  faults : Alice_fault.Fault.t;
      (** fault-injection plan armed at the server's IO boundaries
          (sites ["server.worker"], ["sock.read"], ["sock.write"],
          ["sock.stream"] — a streamed row write — and ["tcp.accept"]);
          {!Alice_fault.Fault.none} in production. A crash escaping a
          connection — injected or real — is contained: the fd is
          closed, the event is logged as [E1005] and counted in
          {!Metrics}, and the worker slot respawns instead of wedging *)
}

(** One Unix listener at [socket_path], [max_in_flight = 4],
    [max_queue = 16], empty base, no forced jobs, no deadline, 30 s
    idle timeout, the [$ALICE_FAULT_PLAN] fault plan. *)
val default_config : socket_path:string -> config

type t

(** Bind every endpoint, start the acceptor and worker threads, and
    return immediately. [engine] defaults to {!Alice.Engine.of_config}
    of the base document's cache knobs. A stale Unix socket file (no
    listener behind it) is removed; a live one raises
    [Invalid_argument], as do an empty [listen] and, before anything
    binds, an [idle_timeout_s] or [deadline_s] that is not positive and
    finite. Installs the engine's warning sink (cache-degradation events
    feed the [stats] counters) and ignores SIGPIPE process-wide. *)
val start : ?engine:A.Engine.t -> config -> t

(** The endpoints actually listening, in [config.listen] order, with
    kernel-chosen ports substituted for [tcp:HOST:0] — what a client
    should pass to [--connect]. *)
val endpoints : t -> Endpoint.t list

(** Begin a graceful drain: stop accepting, finish admitted requests.
    Safe to call from any thread, from a signal handler, and more than
    once. Returns without waiting — pair with {!wait}. *)
val stop : t -> unit

(** Block until the drain completes: every worker has exited and the
    Unix socket files are removed. Idempotent. *)
val wait : t -> unit

(** [run cfg] = {!start}, install SIGTERM/SIGINT handlers that {!stop}
    the server, then {!wait} — the body of `alice serve`. [on_ready]
    runs right after the listeners are bound (e.g. to print the
    effective {!endpoints}). *)
val run : ?engine:A.Engine.t -> ?on_ready:(t -> unit) -> config -> unit

val metrics : t -> Metrics.t

val engine : t -> A.Engine.t
