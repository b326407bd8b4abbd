(** Pre-architecture advisor: recommend a fabric configuration from the
    user's HDL *before* committing to one, ArkAngel-style.

    The advisor enumerates a candidate grid over the searchable axes of
    the (arch × config) space — LUT size k, fabric size bounds from
    {!Alice_fabric.Size_search.suggested_max_widths}, target
    utilization, attack budget, score mode — drives every grid point
    through {!Engine.run_sweep} (so points are cached, per-point
    resumable and attack-verdict-warm; the CLI and the server take the
    same path, and cache warnings follow {!Engine.run}'s routing rule),
    and classifies the solved
    points with {!Pareto} over three objectives: total fabric area
    (minimize), critical-path timing (minimize) and security score
    (maximize; Eq. 1 proxy under [Heuristic], measured attack
    resilience under [Measured] — see {!Engine.point_metrics}).

    Axes default from the design itself (the widest non-top module's
    I/O pin count bounds the useful fabric sizes) and are overridden by
    a YAML constraint document:

    {v
    base:            # flow-configuration overlay for every point
      top: gcd
      score: measured
    axes:            # explicit grid axes; each key optional
      lut_inputs: [4, 6]
      max_fabric_size: [10, 16]
      target_utilization: [0.5]
      attack_budget: [5000]
      score: [heuristic, measured]
    v}

    Grid points whose configurations cannot produce different results —
    equal in every field a stage of {!Alice_config.Flow_config.result}
    reads, so under heuristic scoring the attack budget does not count
    — are deduplicated at planning time.

    Reports are deterministic: JSON and table output depend only on the
    solved points (never on wall-clock or resume provenance), so a warm
    rerun over the same grid is byte-identical to the cold run. *)

module C = Alice_config
module J = C.Json_lite
module V = Alice_verilog

(** Candidate values per searchable axis; every list is non-empty. *)
type axes = {
  ax_lut_inputs : int list;
  ax_max_widths : int list;  (** candidate [max_fabric_size] bounds *)
  ax_utilizations : float list;
  ax_attack_budgets : int list;
  ax_score_modes : C.Flow_config.score_mode list;
}

(** The planned grid: named configurations in deterministic axis order
    (k, then width, then utilization, budget, mode), after dedup. *)
type plan = {
  pl_grid : (string * C.Flow_config.t) list;
  pl_deduped : int;  (** grid points dropped as duplicates *)
}

(** One classified candidate. *)
type entry = {
  e_name : string;
  e_config : C.Flow_config.t;
  e_point : Engine.sweep_point;
  e_rank : int option;  (** 1-based rank on the Pareto front *)
  e_dominated_by : string option;
      (** a front member that dominates this point *)
}

type report = {
  r_entries : entry list;  (** every grid point, in grid order *)
  r_front : entry list;    (** the Pareto front, ranked best-first *)
  r_deduped : int;
}

(** Axes derived from the design alone: LUT sizes {4, 6} (plus the
    base configuration's k), fabric size bounds from the widest
    non-top module's I/O pin count, and the base configuration's
    utilization / budget / score mode as singleton axes. *)
val default_axes : base:C.Flow_config.t -> V.Elaborate.design -> axes

(** Default axes overridden by the constraint document's [axes] map
    (see the module docs for the format). Raises [Invalid_argument] on
    malformed or empty axis lists. *)
val axes_of_constraints :
  base:C.Flow_config.t -> V.Elaborate.design -> J.t -> axes

(** Expand axes into the deduplicated candidate grid. Raises
    [Invalid_argument] when an axis is empty, or when two distinct
    utilizations print alike in candidate names (names keep six
    significant digits, as [%g] does), naming the axis and both
    values. *)
val plan : base:C.Flow_config.t -> axes:axes -> plan

(** [plan_of_source ~base ~constraints source]: parse/elaborate the
    source (honoring [base.top]), derive axes, plan the grid. Raises
    {!Alice_verilog.Loc.Error} on unparsable sources and
    [Invalid_argument] on malformed constraints. *)
val plan_of_source :
  base:C.Flow_config.t -> constraints:J.t -> Flow.source -> plan

(** Classify solved points (one per grid entry, in grid order) into a
    report. The front is ranked security-first (descending), then area,
    then timing, then name. Exposed separately from {!run} so servers
    can rank rows they already streamed. *)
val rank : plan -> Engine.sweep_point list -> report

(** Drive the grid through {!Engine.run_sweep} and rank the results.
    [resume] and [on_point] are passed through — [on_point]
    observes each candidate after its checkpoint write (see
    {!Engine.run_sweep} for the crash-safety contract). *)
val run :
  ?resume:bool -> ?on_point:(Engine.sweep_point -> unit) ->
  Engine.t -> source:Flow.source -> plan -> report

(** Machine-readable forms. Deliberately free of wall-clock times,
    resume flags and diagnostics so cold and warm runs render
    byte-identically. *)
val json_of_entry : entry -> J.t

val json_of_report : report -> J.t

(** Table lines for {!Report.pp_advise_row}: the ranked front first,
    then dominated and infeasible candidates in grid order. *)
val table_rows : report -> Report.advise_row list
