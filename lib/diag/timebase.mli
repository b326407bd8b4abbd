(** Shared monotonic-ish wall clock: readings never decrease, so
    intervals are never negative. Used by the flow's phase timers, the
    characterization deadline and the SAT attack's reported time. *)

(** Current time in seconds (non-decreasing across calls). *)
val now_s : unit -> float

(** Seconds elapsed since an earlier [now_s] reading (never negative). *)
val elapsed_since : float -> float
