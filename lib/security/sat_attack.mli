(** The oracle-guided SAT attack (Subramanyan–Ray–Malik, HOST'15)
    applied to eFPGA-locked netlists: a two-copy miter finds
    distinguishing inputs until no two candidate keys disagree, after
    which any key consistent with the recorded queries is functionally
    correct.

    The loop runs on one persistent incremental solver session: every
    DIP iteration appends its replay constraints to the live miter
    (gated behind an activation literal) and learnt clauses carry across
    queries. *)

(** How a run ended. [Converged] proves the key space collapsed;
    [Exhausted] means the DIP budget ([max_iterations]) ran out (the
    lock held within the budget); [Inconclusive] means the SAT solver's
    own conflict budget ran out — the run proves nothing either way and
    must not be read as "secure". *)
type status = Converged | Exhausted | Inconclusive

val status_to_string : status -> string

type outcome = {
  status : status;
  iterations : int;         (** distinguishing inputs used *)
  key : bool array option;  (** recovered key, when converged *)
  key_bits : int;
  seconds : float;          (** wall-clock time, reported only *)
  conflicts : int;
      (** solver conflicts spent across every solver call the run made;
          unlike [seconds] this is deterministic, so it is the cost
          measure measured selection scoring ranks on *)
  decisions : int;  (** the session's branching decisions, all queries *)
  reused : int;
      (** learnt clauses inherited across the session's queries
          (cumulative live learnt clauses at each query start after the
          first) *)
}

(** Bounds on the attack's work, never on wall-clock time, so a verdict
    does not depend on how fast the solver or the host is. *)
type budget = {
  max_iterations : int;  (** distinguishing inputs the attack may use *)
  solver_conflicts : int option;
      (** per-call conflict budget for the underlying solver; [None]
          leaves it unbounded *)
}

val default_budget : budget

(** Run the attack; [oracle] maps a scan-input stimulus to the correct
    response (use {!Locked.make_oracle}). [observe] receives the
    session's counters after every solver query, in order: each DIP
    query, then the key extraction. *)
val attack :
  ?budget:budget ->
  ?observe:(Alice_sat.Solver.Incremental.stats -> unit) ->
  Locked.t ->
  oracle:(bool array -> bool array) ->
  outcome
