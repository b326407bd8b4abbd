(** Versioned, content-addressed on-disk store for characterization
    results — the persistent half of {!Engine}'s cache.

    One file per key under [<root>/v<N>/<md5(key)>.bin]: a header line
    carrying the format version and an MD5 checksum of the payload,
    then a [Marshal] blob of [(key, value)]. The full key is re-checked
    on load, so a filename collision can only cost a miss, never a
    wrong hit.

    The store never fails a flow — it degrades, and it repairs:

    - A truncated, corrupt or version-mismatched entry degrades to a
      miss with a [W0702] warning and is {e quarantined} (moved into
      [<root>/quarantine/]), so the recomputation's write-back repairs
      the slot instead of re-tripping on the same rot forever.
    - A failed write (e.g. ENOSPC) disables writes with a single
      [W0703] warning; {!enable_writes} — called by {!gc} once space is
      freed — re-arms them, so a long-lived server recovers without a
      restart.
    - With [max_bytes] set the store is bounded: loads refresh their
      entry's mtime and writes evict least-recently-used entries until
      the directory fits the budget again.

    {!gc} does all of the above on demand: validates every entry,
    quarantines failures, evicts to the budget, re-enables writes.

    Writes are atomic (a temporary file per write, named by pid and a
    per-process counter, then rename), loads and counters are
    mutex-guarded, so one store may back the memo table of a
    multi-domain characterization run, serve the threads of a server
    and be shared by concurrent processes.

    Values are read back with [Marshal] at the caller's type: a store
    (i.e. a [root] directory) must hold exactly one value type,
    enforced by {!Engine} being the only writer.

    Fault-injection sites: ["cache.read"] (checked on {!load}: [Fail]
    etc. behave as an unreadable file, [Delay] sleeps) and
    ["cache.write"] (checked on {!store}: [Fail]/[Eintr]/[Eagain] take
    the W0703 path, [Enospc] raises the real [Unix_error] into that
    path, [Torn] persists a truncated payload under a well-formed
    header — the entry {e looks} stored but fails its checksum on the
    next load, [Delay] sleeps). *)

module D = Alice_diag.Diag

(** Bumped on any incompatible change to the entry encoding *or* to the
    cache-key derivation; old entries then miss cleanly. *)
val format_version : int

type stats = {
  disk_hits : int;    (** entries served from disk *)
  disk_misses : int;  (** keys with no entry on disk *)
  stores : int;       (** entries written *)
  failures : int;     (** unreadable/corrupt entries and failed writes *)
  quarantined : int;  (** unusable entries moved aside for repair *)
  evicted : int;      (** entries removed by the byte budget or {!gc} *)
}

(** What one {!gc} pass did. *)
type gc_stats = {
  gc_examined : int;       (** entries inspected *)
  gc_quarantined : int;    (** entries failing validation, moved aside *)
  gc_evicted : int;        (** valid entries evicted by the budget *)
  gc_freed_bytes : int;    (** bytes reclaimed (quarantine + eviction) *)
  gc_live_bytes : int;     (** bytes still stored after the pass *)
  gc_writes_reenabled : bool;  (** a W0703 write-disable was lifted *)
}

type t

(** [$ALICE_CACHE_DIR], else [$XDG_CACHE_HOME/alice], else
    [~/.cache/alice], else a temp-directory fallback. *)
val default_root : unit -> string

(** [create ?root ?max_bytes ?faults ()] opens (lazily — nothing is
    touched on disk until the first write) the store rooted at [root],
    default {!default_root}. [max_bytes] bounds the entry directory
    with LRU eviction; omitted, the store is unbounded. [faults]
    defaults to {!Alice_fault.Fault.global}. *)
val create :
  ?root:string -> ?max_bytes:int -> ?faults:Alice_fault.Fault.t -> unit -> t

val root : t -> string

(** Where the entry for [key] lives (exposed for tests and tooling). *)
val entry_path : t -> string -> string

(** Where quarantined entries are moved ([<root>/quarantine]). *)
val quarantine_dir : t -> string

(** [load t ~key] returns the stored value, or [None] for a missing or
    unusable entry (the latter emits [W0702] and quarantines the file).
    A hit refreshes the entry's mtime — the LRU clock. *)
val load : t -> key:string -> 'v option

(** [store t ~key v] writes the entry atomically, then (with a byte
    budget) evicts LRU entries until the store fits; the entry just
    written is never its own victim. A failure emits one [W0703]
    warning and disables further writes until {!enable_writes}. *)
val store : t -> key:string -> 'v -> unit

(** Whether {!store} currently writes (i.e. no un-cleared W0703). *)
val writes_enabled : t -> bool

(** Lift a [W0703] write-disable. The next failure warns again:
    warn-once is per disabled episode, not per process. *)
val enable_writes : t -> unit

(** [gc ?max_bytes t] validates every entry (header, length, checksum),
    quarantines the ones that fail, evicts least-recently-used valid
    entries until the store fits [max_bytes] (default: the budget given
    at {!create}; no budget, no eviction), and re-enables writes. Safe
    against concurrent loads/stores: validation reads whole files,
    eviction races settle at [Sys.remove]. *)
val gc : ?max_bytes:int -> t -> gc_stats

val stats : t -> stats

(** Route warnings into the caller's diagnostic collector. The sink is
    invoked under the store's mutex, so an unsynchronized collector is
    safe even when loads happen on worker domains. *)
val set_sink : t -> (D.t -> unit) -> unit

val clear_sink : t -> unit
