(** The end-to-end ALICE flow (paper Figure 3): parse → elaborate →
    module filtering → cluster identification → eFPGA selection →
    redacted design generation, with per-phase wall-clock times matching
    Table 2's columns.

    Faults are isolated per phase (and per cluster inside
    characterization): exceptions become structured diagnostics on the
    result and the faulting phase degrades to an empty value, so the
    flow always completes. Only {!Alice_verilog.Loc.Error} (malformed
    input with nothing to elaborate) and [Out_of_memory] escape. *)

module V = Alice_verilog
module C = Alice_config
module D = Alice_diag.Diag

type phase_times = {
  filtering_s : float;  (** includes dataflow analysis, as in the paper *)
  clustering_s : float;
  selection_s : float;  (** includes all CreateEFPGA characterizations *)
}

type t = {
  config : C.Flow_config.t;
  ast : V.Ast.design;
  design : V.Elaborate.design;
  filtering : Filtering.result;
  clusters : Clustering.cluster list;
  characterized : Characterize.characterization list;
  selection : Selection.result;
  diags : D.t list;
      (** every diagnostic recorded while the flow ran, in order:
          parse-recovery errors, per-cluster faults and deadline skips,
          phase faults, cache-degradation warnings. Deadline skips are
          [W0701] warnings, not errors: a run whose only diagnostics
          are skips is not a failed run *)
  times : phase_times;
  char_stats : Characterize.stats;
      (** characterization cache accounting for this run: unique keys,
          hits, computations, deadline skips *)
}

(** What to run the flow on. *)
type source =
  | Ast of V.Ast.design  (** an already parsed design *)
  | Text of { text : string; file : string option }
      (** Verilog source; the parser recovers at item and module
          boundaries, reporting every syntax error as an [E0102]
          diagnostic while surviving modules continue through the
          flow *)

(** One flow job: the source, its configuration, and an optional
    caller-owned diagnostic collector — the record form of the
    [?config ?diags ?file] optional-argument sprawl the deprecated
    wrappers used to carry. Build with {!request}; consume with
    {!run_request} or, for cross-run cache reuse, {!Engine.run}. *)
type request = {
  source : source;
  config : C.Flow_config.t;
  diags : D.Collector.t option;
}

(** [request ?config ?diags source] — [config] defaults to
    {!Alice_config.Flow_config.default}. *)
val request :
  ?config:C.Flow_config.t -> ?diags:D.Collector.t -> source -> request

(** Run a {!request}. An empty candidate set (like IIR under cfg1) is
    not an error — the result simply carries no solution. When the
    request carries a collector, diagnostics are appended to it (on top
    of anything already in it) as well as reported on the result. With
    [cache], characterizations are served from and written back to the
    caller's cache — this is how {!Engine} reuses work across runs;
    without it every run starts cold. [attack_cache] plays the same
    role for measured-selection attack verdicts (ignored when the
    configuration's [score_mode] is [Heuristic]). *)
val run_request :
  ?cache:Characterize.cache ->
  ?attack_cache:Selection.Scorer.cache ->
  request ->
  t

(** Generate the redacted design for the flow's best solution. *)
val redact : ?view:Redact.view -> t -> Redact.redacted option

val valid_efpga_count : t -> int
