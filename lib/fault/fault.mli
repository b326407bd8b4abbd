(** Deterministic fault injection for the self-healing layers.

    A fault {e plan} is a set of rules, each naming an injection {e site}
    (a stable string like ["cache.write"] or ["server.worker"] marking
    one hookable IO boundary), an {e action} (what goes wrong) and a
    {e trigger} (which hits of that site fire). Components thread a plan
    through their IO boundaries and call {!check} or {!hit} at each one;
    with the empty plan ({!none}) a hit is a single atomic load, so the
    hooks cost nothing in production.

    Plans are deterministic by construction: triggers count hits, never
    roll dice, so the same plan over the same operation sequence injects
    the same faults — which is what lets every "degrades gracefully"
    claim be a reproducible test instead of a soak hope.

    Sites currently wired (see DESIGN.md "Failure model"):
    ["cache.read"], ["cache.write"] ({!Disk_cache}); ["pool.task"],
    ["pool.worker"], ["pool.spawn"] ({!Alice_parallel.Pool});
    ["server.worker"], ["sock.read"], ["sock.write"], ["sock.stream"] (a
    streamed sweep-row write), ["tcp.accept"] (the server's TCP front door);
    ["sock.connect"], ["client.rpc"] (the client);
    ["engine.sweep_point"] ({!Engine.run_sweep}). *)

(** What an armed rule does at its site. How an action manifests is the
    site's decision (documented per component); the default {!hit}
    behavior raises {!Injected} for [Fail]/[Kill], the matching
    [Unix.Unix_error] for [Enospc]/[Eintr]/[Eagain], sleeps for
    [Delay], and raises {!Injected} for [Torn] at sites that cannot
    tear a write. *)
type action =
  | Fail            (** a generic failure (exception) at the site *)
  | Torn            (** a torn write: the site persists a truncated payload *)
  | Enospc          (** [ENOSPC]: the device is full *)
  | Eintr           (** [EINTR]: a transient, retryable interruption *)
  | Eagain          (** [EAGAIN]: a transient, retryable unavailability *)
  | Kill            (** worker death: the exception must {e escape} the
                        site's normal per-task containment and exercise
                        the supervisor above it *)
  | Delay of float  (** injected latency, seconds *)

(** Which hits of a site fire, counting from 1. *)
type trigger =
  | Nth of int    (** exactly the [n]th hit *)
  | After of int  (** every hit from the [n]th on *)
  | Every of int  (** every [n]th hit (the [n]th, [2n]th, ...) *)

type rule = { site : string; action : action; trigger : trigger }

(** The exception injected faults raise. Always carries the site, so a
    contained fault is attributable in logs and diagnostics. *)
exception Injected of { site : string; action : action }

type t

(** The empty plan: every {!check} is [None], at the cost of one load. *)
val none : t

val is_none : t -> bool

val rules : t -> rule list

(** [create rules] builds an armed plan with fresh hit counters. *)
val create : rule list -> t

(** Parse a plan spec: semicolon-separated [site=action@trigger] rules,
    e.g. ["cache.write=torn@2;server.worker=kill@3;sock.read=eintr@1+"].
    Actions: [fail], [torn], [enospc], [eintr], [eagain], [kill],
    [delay:<ms>]. Triggers: [N] (the Nth hit), [N+] (every hit from the
    Nth), [N%] (every Nth hit). The empty string is {!none}.
    Raises [Invalid_argument] on a malformed spec. *)
val parse : string -> t

(** [to_string (parse s)] round-trips modulo whitespace. *)
val to_string : t -> string

(** The process-wide plan, parsed once from [$ALICE_FAULT_PLAN] (empty
    or unset: {!none}). This is what components default to, so a fault
    smoke can arm a whole CLI process from the environment. A malformed
    plan aborts the process at first use — a fault plan is test
    machinery; silently running without it would fake a pass. *)
val global : unit -> t

(** [check t site] counts one hit at [site] and returns the action of
    the rule that fired, if any (also counted, per site, for {!injected}).
    The caller applies the action — this is the form for sites that
    implement [Torn] or route [Kill] around their containment.
    Thread- and domain-safe. *)
val check : t -> string -> action option

(** [hit t site] is {!check} plus the default application: raises
    {!Injected} on [Fail]/[Kill]/[Torn], the matching
    [Unix.Unix_error (_, site, _)] on [Enospc]/[Eintr]/[Eagain], sleeps
    on [Delay], does nothing when no rule fires. *)
val hit : t -> string -> unit

(** Injections fired so far, per site (sites with none are absent),
    sorted by site name. *)
val injected : t -> (string * int) list

val total_injected : t -> int

(** Forget all hit and injection counts (the rules stay armed). *)
val reset : t -> unit
