(** Versioned, content-addressed on-disk store — the persistent half of
    {!Engine}'s cache, holding its characterizations, attack verdicts
    and sweep checkpoints in one directory.

    A log per handle under [<root>/v<N>/]: each handle appends records
    to a segment file of its own, [<pid>-<n>.log], and an in-memory
    index maps each key's digest to its record. A record is a header
    line [ALICE-CACHE <N> <md5(key)> <md5(payload)> <payload-bytes>],
    then the payload, a [Marshal] blob of [(key, value)]. A miss rescans
    only what other handles' segments gained since the last look, one
    short read per new header, so concurrent processes share entries.
    The full key is re-checked on load, so a digest collision can only
    cost a miss, never a wrong hit.

    The store never fails a flow — it degrades, and it repairs:

    - A truncated, corrupt or version-mismatched record degrades to a
      miss with a [W0702] warning and is {e quarantined}: its bytes are
      copied into [<root>/quarantine/] and it is marked dead in place,
      so no handle indexes it again and the recomputation's write-back
      is what later loads find. A handle that had indexed the record
      before takes the mark for a silent miss and looks for the
      write-back.
    - A record cut short at a segment's end (a write in progress, or a
      writer killed mid-write) is an incomplete tail: it is neither
      indexed nor reported.
    - A failed write (e.g. ENOSPC) disables writes with a single
      [W0703] warning; {!gc} re-arms them once space is freed, so a
      long-lived server recovers without a restart.
    - With [max_bytes] set the store is bounded: loads and stores stamp
      their record as used, and a write that takes the segments over
      budget compacts them into one fresh segment holding the most
      recently used records that fit in half the budget, so a run of
      stores pays one compaction per half budget it writes.

    {!gc} does all of the above on demand: validates every record,
    quarantines failures, compacts to the budget, re-enables writes,
    and deletes the entry files an earlier format version left.

    Each write is one append of a whole record, made under the handle's
    mutex; loads and counters are mutex-guarded, so one store may back
    the memo table of a multi-domain characterization run, serve the
    threads of a server and be shared by concurrent processes.

    Values are read back with [Marshal] at the caller's type, and the
    stored key must equal the requested one: every key must therefore
    name the type of its value. {!Engine}, the only writer, keeps its
    three key families apart by prefix.

    Fault-injection sites: ["cache.read"] (checked on {!load}: [Fail]
    etc. behave as an unreadable record, [Delay] sleeps) and
    ["cache.write"] (checked on {!store}: [Fail]/[Eintr]/[Eagain] take
    the W0703 path, [Enospc] raises the real [Unix_error] into that
    path, [Torn] appends a record whose payload's second half is zeroed
    under a well-formed header — the entry {e looks} stored but fails
    its checksum on the next load, [Delay] sleeps). *)

module D = Alice_diag.Diag

(** Bumped on an incompatible change to the record encoding; old entries
    then miss cleanly, and {!gc} deletes them. A changed key derivation
    is handled by the keys' own version tags instead: bumping this would
    re-key every entry and orphan persisted attack verdicts and
    checkpoints whose keys did not change. *)
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
  gc_freed_bytes : int;
      (** bytes reclaimed: quarantined, evicted, dead, superseded and
          incomplete records, and an earlier format's entry files *)
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

(** Where the record for [key] lives: its segment file, its offset and
    its length, header included (exposed for tests and tooling). *)
val locate : t -> key:string -> (string * int * int) option

(** Where quarantined records are copied ([<root>/quarantine]). *)
val quarantine_dir : t -> string

(** [load t ~key] returns the stored value, or [None] for a missing or
    unusable record (the latter emits [W0702] and quarantines it). A
    hit stamps the record as used — the LRU clock. *)
val load : t -> key:string -> 'v option

(** [store t ~key v] appends the record, then (with a byte budget)
    compacts the store to half the budget when the segments outgrow it;
    the record just written is never its own victim. A failure emits one
    [W0703] warning and disables further writes until {!gc}. *)
val store : t -> key:string -> 'v -> unit

(** Whether {!store} currently writes (i.e. no un-cleared W0703). *)
val writes_enabled : t -> bool

(** [gc ?max_bytes t] validates every record (header, length,
    checksum), quarantines the ones that fail, rereads every header so
    that a key whose record it dropped keeps any live record found
    elsewhere, compacts the store to the most recently used records
    that fit [max_bytes] (default: the budget given at {!create}; with
    no budget it drops only dead, superseded and incomplete records) in
    one fresh segment that replaces all the others, re-enables writes,
    and deletes the entry files and orphaned temp files of earlier
    format versions.
    The next write failure warns again, as warn-once is per disabled
    episode. A record another process appends while the pass compacts
    may be lost, which costs a later miss, never a wrong hit.
    @raise Invalid_argument on a negative [max_bytes], before touching
    any entry. *)
val gc : ?max_bytes:int -> t -> gc_stats

val stats : t -> stats

(** Route warnings into the caller's diagnostic collector. The sink is
    invoked under the store's mutex, so an unsynchronized collector is
    safe even when loads happen on worker domains. *)
val set_sink : t -> (D.t -> unit) -> unit

val clear_sink : t -> unit
