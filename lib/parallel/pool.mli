(** Bounded Domain-based work pool.

    A pool is a parallelism budget: {!map_ordered} fans a task list out
    over at most [jobs] worker domains and returns the results in input
    order, so callers that were previously serial [List.map]s keep their
    output order (and therefore their downstream determinism) unchanged.

    Fault isolation survives parallelism: an exception raised by one
    task is captured as its own {!outcome} and never kills a sibling
    task or the pool — and so is a crash of the worker {e between}
    tasks (exercised by fault injection): the worker re-enters its
    claim loop, so a dying worker costs at most one task slot, never
    the batch. Every task runs: a caller that wants to give up on work,
    as the characterization deadline does, decides inside its task.

    Fault-injection sites: ["pool.task"] (hit inside each task's
    containment — an injected failure is that task's [Raised]),
    ["pool.worker"] (hit between claim and dispatch, {e outside} the
    per-task containment — an injected [Kill] exercises the worker
    supervision above; the claimed slot comes back [Raised]) and
    ["pool.spawn"] (hit before each worker domain is spawned — an
    injected failure is a spawn the runtime refused). *)

type t

(** [create ~jobs] is a pool dispatching at most [max 1 jobs] tasks
    concurrently. Worker domains are spawned per {!map_ordered} batch
    (never more than the batch size) and joined before it returns, so a
    pool holds no resources between calls and needs no shutdown. A
    spawn that fails (the runtime holds at most 128 domains, the
    caller's included) ends the spawning: the workers already running
    drain the batch, or the calling domain does when none started, and
    the outcomes are unchanged. *)
val create : jobs:int -> t

val jobs : t -> int

(** How one task ended. *)
type 'a outcome =
  | Value of 'a        (** the task returned *)
  | Raised of exn      (** the task raised; siblings were unaffected *)

(** [map_ordered ?faults pool f xs] applies [f] to every element of
    [xs] across the pool's workers and returns the outcomes in the
    order of [xs]. With [jobs = 1] no domain is spawned and the tasks
    run sequentially in the calling domain, as a serial [List.map].
    [faults] (default {!Alice_fault.Fault.global}) arms the
    ["pool.task"], ["pool.worker"] and ["pool.spawn"] injection
    sites. *)
val map_ordered :
  ?faults:Alice_fault.Fault.t -> t -> ('a -> 'b) -> 'a list -> 'b outcome list
