(** A CDCL SAT solver: two-watched-literal propagation, first-UIP
    conflict analysis with clause learning, VSIDS-style branching
    activity (an order heap; highest activity, then lowest index) with
    phase saving, and geometric restarts. Sized for the circuit problems
    the SAT attack generates.

    The engine is a persistent {!Incremental} session: one solver
    instance stays alive across queries, clauses and variables append to
    the live instance, each query solves under per-call assumptions, and
    learnt clauses carry over between queries (with LBD-ordered
    clause-database reduction keeping the retained set bounded). The
    single-shot {!solve} is a one-query session. *)

type result =
  | Sat of bool array  (** indexed by variable; entry 0 unused *)
  | Unsat
  | Unknown  (** a resource budget ran out before the search concluded *)

(** Single-shot solve. [assumptions] are DIMACS literals fixed before
    search (a literal 0 raises [Invalid_argument]).
    [max_conflicts]/[max_decisions] are hard budgets: when the search
    would exceed either it returns {!Unknown} instead of running
    unboundedly (conflicts at level 0 still conclude [Unsat]). *)
val solve :
  ?assumptions:int list ->
  ?max_conflicts:int ->
  ?max_decisions:int ->
  Cnf.t ->
  result

(** Process-wide number of completed solver queries across all domains
    since program start — single-shot {!solve} calls and {!Incremental}
    session queries alike. Tests use deltas of this counter to assert
    that warm cache paths perform zero solver work. *)
val total_calls : unit -> int

(** Value of a variable in a model. *)
val model_value : bool array -> int -> bool

(** A persistent solver session: clauses accumulate across queries and
    learnt clauses are retained between calls, so later queries against
    a monotonically growing formula start from the work earlier queries
    already did. All mutation and solving must happen from one domain at
    a time (sessions are not thread-safe; the attack runs one session
    per candidate inside its own pool task). *)
module Incremental : sig
  type session

  (** Per-session counters. All cumulative fields are monotone over the
      session's lifetime. *)
  type stats = {
    queries : int;  (** solve calls against this session *)
    conflicts : int;  (** cumulative, monotone across the session *)
    decisions : int;
    propagations : int;
    learnt_live : int;  (** learnt clauses currently retained *)
    learnt_reused : int;
        (** cumulative: live learnt clauses at each query start after the
            first — the inherited work later queries did not repeat *)
    learnt_dropped : int;  (** cumulative clauses removed by reduction *)
    learnt_ceiling : int;  (** current clause-DB reduce ceiling *)
    reduces : int;  (** reduction passes performed *)
  }

  (** [create ()] is an empty session. [nvars] pre-sizes the variable
      arrays; [reduce_base] overrides the initial clause-DB reduction
      ceiling (default 2000) — tests use a small base to force
      reductions on small formulas. *)
  val create : ?nvars:int -> ?reduce_base:int -> unit -> session

  (** Highest variable the session knows about. *)
  val nvars : session -> int

  (** Grow the session to know variables [1..n]. Idempotent; [add_clause]
      and [add_cnf] call it implicitly. *)
  val ensure_vars : session -> int -> unit

  (** Append one clause (DIMACS literals) to the live instance. Must be
      called between queries, never during one. Raises
      [Invalid_argument] on a literal 0. *)
  val add_clause : session -> int list -> unit

  (** Append every clause of [f] (used to load the initial formula). *)
  val add_cnf : session -> Cnf.t -> unit

  (** Attach a CNF the caller keeps encoding into. Each subsequent query
      first pulls the clauses added to the CNF since the last sync, so
      callers can use the {!Cnf} encoding helpers and never hand-feed
      the session. A session attaches to at most one CNF. *)
  val attach : session -> Cnf.t -> unit

  (** Pull pending clauses from the attached CNF now (queries do this
      implicitly). No-op without an attached CNF. *)
  val sync : session -> unit

  (** Solve the accumulated formula under [assumptions] (DIMACS
      literals, asserted for this query only and retracted afterwards;
      a literal 0 raises [Invalid_argument]).
      Budgets are per-query; [Unknown] leaves the session usable.
      [Unsat] under assumptions does not poison the session — only a
      contradiction in the formula itself makes every later query
      [Unsat]. *)
  val solve :
    ?assumptions:int list ->
    ?max_conflicts:int ->
    ?max_decisions:int ->
    session ->
    result

  (** Like {!solve} but also reports the conflicts this query spent
      (this query only, not the session cumulative). *)
  val solve_stats :
    ?assumptions:int list ->
    ?max_conflicts:int ->
    ?max_decisions:int ->
    session ->
    result * int

  val stats : session -> stats
end
