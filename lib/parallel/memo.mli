(** Mutex-guarded memo table and {!resolve}, the one keyed resolver
    every cached stage goes through: dedupe a batch by key, serve hits,
    compute the misses once each across a {!Pool}, write back, and fan
    the values out in input order — the same result for any [jobs].

    A key is computed under a claim, by {!resolve} and
    {!find_or_compute} alike: a caller that finds the key claimed by
    another waits for that caller's value and counts it as a hit, so
    concurrent callers compute each key once. Lookups and write-backs
    are atomic with respect to each other and computation runs outside
    the lock, so a slow computation blocks only the callers of its own
    key.

    A table may be backed by a store: [load] is consulted (outside the
    lock) on an in-memory miss and its hit is installed, so the store is
    read lazily, one key at a time; [save] is called (outside the lock)
    on each write-back. Hooks must be safe to call from any domain and
    must not raise — a store that can fail should catch internally and
    degrade to [None] / no-op. *)

type ('k, 'v) t

(** [create ?size ?load ?save ()]; omitting both hooks gives a plain
    in-memory table. *)
val create :
  ?size:int ->
  ?load:('k -> 'v option) ->
  ?save:('k -> 'v -> unit) ->
  unit ->
  ('k, 'v) t

(** [(hits, computed)] since {!create}: the lookups [t] served, from
    memory, from [load] or by waiting on another caller's claim, and the
    computations that returned. *)
val counts : ('k, 'v) t -> int * int

(** The content digest of a key's structured part: the MD5 hex of [x]
    marshalled without sharing, so structurally equal values digest
    alike across processes, whatever sharing their memory layout has. *)
val digest : 'a -> string

(** [find_or_compute t k compute] is the value [t] holds for [k] (in
    memory or from [load]), else [compute ()] written back: {!resolve}
    for one key, without its {!Pool} dispatch, so a lookup nested inside
    a pooled task costs no task or worker of its own. An exception from
    [compute] propagates and nothing is written back; a waiting caller
    then computes [k] itself. *)
val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v

(** What one {!resolve} call produced: one value per item in item
    order, one per distinct key in first-occurrence order, and every
    distinct key counted once — a hit (memory, [load], or another
    caller's claim) or computed (its task returned or raised). *)
type ('k, 'v) resolution = {
  values : 'v list;
  uniques : ('k * 'v) list;
  hits : int;
  computed : int;
}

(** [resolve ?jobs ?keep ~recover t compute items] dedupes the
    [(key, input)] items by key (first occurrence wins), looks the keys
    up serially in that order (memory, then [load]), and runs
    [compute input] under the key's claim for the rest over a {!Pool}
    of [jobs] domains (default 1: serial, no domain spawned). Computed
    values that [keep] accepts (default: all) go into [t] as their
    claims drop and to [save] serially in miss order afterwards. A task
    that raised [e] becomes [recover input e], never written back.
    [Out_of_memory] is re-raised. *)
val resolve :
  ?jobs:int ->
  ?keep:('v -> bool) ->
  recover:('a -> exn -> 'v) ->
  ('k, 'v) t ->
  ('a -> 'v) ->
  ('k * 'a) list ->
  ('k, 'v) resolution
