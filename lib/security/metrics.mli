(** Security metrics: check a key the SAT attack recovered against the
    locked candidate's original function, so a "key recovered" verdict
    comes with a verified key. *)

(** Compare a candidate key against the original on random scan vectors
    (exhaustive when the input space is at most 2^16). *)
val key_is_correct : ?samples:int -> Locked.t -> bool array -> bool
