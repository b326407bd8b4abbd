(** One wall-clock helper for the flow's phase times, the
    characterization deadline and the SAT attack's reported time.

    [Unix.gettimeofday] can step backwards under NTP adjustment, and a
    negative interval would misreport a phase or trip the deadline, so
    readings are clamped to be non-decreasing ("monotonic-ish").

    The clamp state is mutex-guarded: deadline predicates are polled
    from worker domains when characterization runs parallel, and an
    unguarded read-modify-write on [last] could publish a torn or stale
    clamp across domains. *)

let mu = Mutex.create ()

let last = ref 0.0

let now_s () : float =
  let t = Unix.gettimeofday () in
  Mutex.protect mu (fun () ->
      if t > !last then last := t;
      !last)

let elapsed_since (t0 : float) : float = Float.max 0.0 (now_s () -. t0)
