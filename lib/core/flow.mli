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
    not an error — the result simply carries no solution. A
    [selected_outputs] entry that names no output of the top module
    raises [Invalid_argument] (an [E0602] through {!classify_exn})
    before any characterization. When the request carries a collector,
    diagnostics are appended to it (on top of anything already in it)
    as well as reported on the result. With [cache], the front end
    (parse → elaborate → dataflow → filtering → clustering) and the
    characterizations are served from and written back to the caller's
    cache — this is how {!Engine} reuses work across runs; without it
    every run starts cold. The front stage is keyed by the source (its
    text and file name, or the marshalled AST) and the fields
    {!Alice_config.Flow_config.classify} assigns to [Front]; a hit
    replays the stored syntax errors and phase faults into this
    request's diagnostics and runs neither filtering nor clustering, so
    both phase times are 0. A source that fails to elaborate raises as
    without a cache and is never stored. [attack_cache] plays the same
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

(** Classify an exception that escaped a flow (or the input handling
    around one) into its layer's diagnostic: [E0100] malformed Verilog,
    [E0601] configuration parse error, [E0201] synthesis, [E0202]
    combinational cycle, [E0800] redaction, [E0602] invalid
    configuration value, [E0001] unreadable file. [None] means the
    failure is internal. *)
val classify_exn : exn -> D.t option
