(** Mutex-guarded metrics registry for the redaction service: per-op
    request counters, a log-scale latency histogram over completed
    requests, admission-control rejection counters, and aggregated
    characterization-cache accounting. All recording entry points are
    safe to call from any thread; {!snapshot} is a consistent
    cut (taken under the same lock) that the [stats] operation
    serializes. *)

type op_counters = {
  received : int;   (** requests of this op accepted for execution *)
  succeeded : int;  (** completed with [ok:true] *)
  failed : int;     (** completed with [ok:false] *)
}

type snapshot = {
  uptime_s : float;
  per_op : (string * op_counters) list;  (** sorted by op name *)
  rejected_busy : int;      (** connections refused by admission control *)
  rejected_draining : int;  (** connections refused during shutdown drain *)
  completed : int;          (** total requests measured in the histogram *)
  latency_buckets : (float * int) array;
      (** (upper bound in seconds, count); the last bucket's bound is
          [infinity] *)
  latency_sum_s : float;
  latency_max_s : float;
  cache_hits : int;      (** summed over every request's [char_stats] *)
  cache_computed : int;
  cache_skipped : int;
  cache_warnings : int;  (** engine-wide [W0702]/[W0703] events *)
  attacks_run : int;     (** measured-selection attacks computed *)
  attacks_cached : int;  (** verdicts served from the attack cache *)
  attacks_inconclusive : int;
      (** unique verdicts whose attack proved nothing either way *)
  worker_crashes : int;
      (** [E1005] events: connections whose thread crashed (the crash
          was contained and only that connection's thread ended) *)
}

type t

val create : unit -> t

val record_received : t -> op:string -> unit

(** [record_completed t ~op ~ok ~seconds] counts one finished request
    and files its wall-clock latency into the histogram. *)
val record_completed : t -> op:string -> ok:bool -> seconds:float -> unit

val record_rejected_busy : t -> unit

val record_rejected_draining : t -> unit

(** Fold one run's characterization-cache accounting into the totals. *)
val record_cache_run : t -> hits:int -> computed:int -> skipped:int -> unit

(** Fold one run's measured-selection attack accounting into the
    totals. *)
val record_attack_run : t -> run:int -> cached:int -> inconclusive:int -> unit

val record_cache_warning : t -> unit

(** Count one contained connection-thread crash ([E1005]). *)
val record_worker_crash : t -> unit

val snapshot : t -> snapshot

(** [quantile s q] is an upper bound on the [q]-quantile (0 < q <= 1)
    of the completed-request latency, read off the histogram: the bound
    of the bucket holding the rank-[ceil q*n] observation, clamped to
    [latency_max_s] so no quantile ever exceeds the true maximum (the
    overflow bucket reports the exact maximum). [0.] when nothing
    completed. *)
val quantile : snapshot -> float -> float
