(** Mutex-guarded memo table and {!resolve}, the one keyed resolver
    every cached stage goes through: dedupe a batch by key, serve hits,
    compute the misses once each across a {!Pool}, write back, and fan
    the values out in input order — the same result for any [jobs].

    Lookups and write-backs are atomic with respect to each other and
    computation runs outside the lock, so a slow computation never
    blocks other keys. Two batches racing on one key may both compute
    it; the last write-back wins, which is safe for any pure keyed
    computation.

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

(** [find_or_compute t k compute] is the value [t] holds for [k] (in
    memory or from [load]) paired with [true], else [compute ()] written
    back and paired with [false]: {!resolve} for one key, without its
    {!Pool} dispatch, so a lookup nested inside a pooled task costs no
    task or worker of its own. An exception from [compute] propagates
    and nothing is written back. *)
val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v * bool

(** What one {!resolve} call produced: one value per item in item
    order, one per distinct key in first-occurrence order, and every
    distinct key counted once — a hit (memory or [load]), computed (its
    task returned or raised) or skipped (never dispatched). *)
type ('k, 'v) resolution = {
  values : 'v list;
  uniques : ('k * 'v) list;
  hits : int;
  computed : int;
  skipped : int;
}

(** [resolve ?jobs ?should_stop ?keep ~recover t compute items]
    dedupes the [(key, input)] items by key (first occurrence wins),
    serves the keys [t] holds, and runs [compute input] for the rest
    over a {!Pool} of [jobs] domains (default 1: serial, no domain
    spawned), polling [should_stop] before each dispatch as
    {!Pool.map_ordered} does. Computed values that [keep] accepts
    (default: all) are written back to [t], and so to [save], in miss
    order. A task that raised [e] becomes [recover input (Some e)], one
    never dispatched [recover input None]; these are never written back.
    [Out_of_memory] is re-raised. *)
val resolve :
  ?jobs:int ->
  ?should_stop:(unit -> bool) ->
  ?keep:('v -> bool) ->
  recover:('a -> exn option -> 'v) ->
  ('k, 'v) t ->
  ('a -> 'v) ->
  ('k * 'a) list ->
  ('k, 'v) resolution
