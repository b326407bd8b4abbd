(** Security metrics: run the actual SAT attack on a locked candidate
    and verify the recovered key, making the utilization-vs-security
    claim behind Eq. 1 measurable. *)

module Circuit = Alice_netlist.Circuit

type report = {
  key_bits : int;
  attack : Sat_attack.outcome;
  key_correct : bool option;  (** functional check of the recovered key *)
}

(** Compare a candidate key against the original on random scan vectors
    (exhaustive when the input space is at most 2^16). *)
val key_is_correct : ?samples:int -> Locked.t -> bool array -> bool

(** Lock a mapped circuit, attack it, verify the recovered key. *)
val evaluate : ?budget:Sat_attack.budget -> Circuit.t -> report
