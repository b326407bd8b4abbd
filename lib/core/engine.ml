(** The reusable flow engine: a long-lived handle owning one
    characterization cache — an in-memory, mutex-guarded memo table
    backed (unless caching is off) by the persistent {!Disk_cache}
    store — through which any number of flow {!Flow.request}s run.

    This is what makes the realistic ALICE workload cheap: fabric
    parameter exploration and iterative customization run the *same*
    modules through CreateEFPGA over and over, and the dominant cost is
    exactly those characterizations. A cold run pays them once; every
    later run — in the same process through the same engine, or in a
    new process via the on-disk store — gets them back by
    content-addressed lookup ({!Characterize.keyer}: member-module
    subtree digests plus the configuration's characterization digest),
    so results are identical to a cold run, just faster.

    Degradation is always soft: unusable cache entries recompute with a
    [W0702] warning on the affected run's diagnostics, an unwritable
    store warns once ([W0703]) and stops writing. The engine never
    changes what a flow computes — only whether CreateEFPGA has to run
    again. *)

module C = Alice_config
module D = Alice_diag.Diag
module F = Alice_fabric
module Fi = Alice_fault.Fault

(* The selection-scoring seam, re-exported so library users configure
   measured scoring without reaching into [lib/core] internals. *)
module Scorer = Selection.Scorer

type t = {
  memo : Characterize.cache;
  disk : Disk_cache.t option;
  sweep_store : Disk_cache.t option;
      (* per-point sweep checkpoints, a separate store (one value type
         per store) under <root>/sweep; never byte-bounded — summaries
         are tiny and evicting one silently costs a recomputation *)
  attack_memo : Scorer.cache;
      (* measured-selection attack verdicts, shared across runs like
         [memo]; backed by [attack_store] when caching is on *)
  attack_store : Disk_cache.t option;
      (* persistent attack/ namespace under <root>/attack — a separate
         store because one store holds one value type *)
  faults : Fi.t;
}

let create ?(cache = true) ?cache_dir ?max_bytes ?faults () : t =
  let faults = match faults with Some f -> f | None -> Fi.global () in
  if not cache then
    { memo = Characterize.create_cache (); disk = None; sweep_store = None;
      attack_memo = Scorer.create_cache (); attack_store = None; faults }
  else begin
    let disk = Disk_cache.create ?root:cache_dir ?max_bytes ~faults () in
    let load key = Disk_cache.load disk ~key in
    (* the disk layer only ever holds fabric verdicts; [run_all]
       already refuses to cache faults and skips *)
    let save key (c : Characterize.characterization) =
      match c.Characterize.outcome with
      | Characterize.Implemented _ | Characterize.Infeasible _ ->
        Disk_cache.store disk ~key c
      | Characterize.Failed _ | Characterize.Skipped _ -> ()
    in
    let sweep_store =
      Disk_cache.create
        ~root:(Filename.concat (Disk_cache.root disk) "sweep")
        ~faults ()
    in
    let attack_store =
      Disk_cache.create
        ~root:(Filename.concat (Disk_cache.root disk) "attack")
        ~faults ()
    in
    (* every verdict status persists: a verdict is a deterministic fact
       about (netlist, fabric, budget), including Inconclusive ones —
       the Scorer never caches crashed tasks in the first place *)
    let attack_load key = Disk_cache.load attack_store ~key in
    let attack_save key (v : Scorer.verdict) =
      Disk_cache.store attack_store ~key v
    in
    { memo = Characterize.create_cache ~load ~save (); disk = Some disk;
      sweep_store = Some sweep_store;
      attack_memo = Scorer.create_cache ~load:attack_load ~save:attack_save ();
      attack_store = Some attack_store; faults }
  end

(** An engine honoring the configuration's cache knobs ([cache],
    [cache_dir], [cache_max_bytes]) and fault plan. *)
let of_config (cfg : C.Flow_config.t) : t =
  let faults =
    match cfg.C.Flow_config.fault_plan with
    | Some spec -> Fi.parse spec
    | None -> Fi.global ()
  in
  create ~cache:cfg.C.Flow_config.cache ?cache_dir:cfg.C.Flow_config.cache_dir
    ?max_bytes:cfg.C.Flow_config.cache_max_bytes ~faults ()

let cache_root (t : t) : string option = Option.map Disk_cache.root t.disk

let disk_stats (t : t) : Disk_cache.stats option =
  Option.map Disk_cache.stats t.disk

(** Run one request through the engine's cache. Cache-degradation
    warnings raised while this request runs land on its diagnostics
    (and its collector, if it carries one). Per-run cache accounting is
    on the result's [char_stats]. *)
let run (t : t) (req : Flow.request) : Flow.t =
  let collector =
    match req.Flow.diags with Some c -> c | None -> D.Collector.create ()
  in
  let req = { req with Flow.diags = Some collector } in
  match t.disk with
  | None -> Flow.run_request ~cache:t.memo ~attack_cache:t.attack_memo req
  | Some disk ->
    Disk_cache.set_sink disk (D.Collector.add collector);
    Option.iter
      (fun store -> Disk_cache.set_sink store (D.Collector.add collector))
      t.attack_store;
    Fun.protect
      ~finally:(fun () ->
        Disk_cache.clear_sink disk;
        Option.iter Disk_cache.clear_sink t.attack_store)
      (fun () ->
        Flow.run_request ~cache:t.memo ~attack_cache:t.attack_memo req)

(** Like [run], but without touching the disk store's warning sink, so
    overlapping calls from several threads are safe — the sink swap in
    [run] is the only part of the engine that is not. Cache-degradation
    warnings raised on behalf of any concurrent request go to the
    engine-wide sink installed with [set_warning_sink]. *)
let run_shared (t : t) (req : Flow.request) : Flow.t =
  Flow.run_request ~cache:t.memo ~attack_cache:t.attack_memo req

let set_warning_sink (t : t) (sink : D.t -> unit) : unit =
  match t.disk with
  | None -> ()
  | Some disk ->
    Disk_cache.set_sink disk sink;
    Option.iter (fun store -> Disk_cache.set_sink store sink) t.attack_store

let gc ?max_bytes (t : t) : Disk_cache.gc_stats option =
  match t.disk with
  | None -> None
  | Some disk ->
    let stats = Disk_cache.gc ?max_bytes disk in
    (* freed space un-wedges the checkpoint and attack stores too *)
    Option.iter Disk_cache.enable_writes t.sweep_store;
    Option.iter Disk_cache.enable_writes t.attack_store;
    Some stats

(* ---------- resumable sweeps ---------- *)

type point_metrics = {
  pm_area_um2 : float;
  pm_timing_ns : float;
  pm_security : float;
  pm_security_mode : C.Flow_config.score_mode;
}

type sweep_point = {
  sp_name : string;
  sp_feasible : bool;
  sp_fabrics : string option;
  sp_metrics : point_metrics option;
  sp_hits : int;
  sp_computed : int;
  sp_skipped : int;
  sp_attacks_run : int;
  sp_attacks_cached : int;
  sp_attacks_inconclusive : int;
  sp_times : Flow.phase_times;
  sp_diags : D.t list;
  sp_resumed : bool;
}

let point_diags (sp : sweep_point) : D.t list =
  List.map
    (fun (d : D.t) ->
      { d with D.context = ("config", sp.sp_name) :: d.D.context })
    sp.sp_diags

let solution_fabrics (flow : Flow.t) : string option =
  match flow.Flow.selection.Selection.best with
  | None -> None
  | Some best ->
    Some
      (String.concat "+"
         (List.map
            (fun (e : Selection.efpga_impl) ->
              F.Fabric.size_label e.Selection.impl.F.Size_search.fabric)
            best.Selection.efpgas))

(* The advisor's three objectives, read off the selected solution. Area
   sums the chosen fabrics; timing is the slowest fabric's critical
   path; security is on the configured score mode's own scale — Eq. 1
   total score for Heuristic, mean measured attack resilience in [0,1]
   for Measured (falling back to the heuristic score when no verdicts
   were recorded, e.g. every attack crashed). *)
let solution_metrics (flow : Flow.t) : point_metrics option =
  match flow.Flow.selection.Selection.best with
  | None -> None
  | Some best ->
    let cfg = flow.Flow.config in
    let efpgas = best.Selection.efpgas in
    let area =
      List.fold_left
        (fun acc (e : Selection.efpga_impl) ->
          acc +. F.Area.fabric_area e.Selection.impl.F.Size_search.fabric)
        0. efpgas
    in
    let timing =
      List.fold_left
        (fun acc (e : Selection.efpga_impl) ->
          let r =
            F.Timing.estimate e.Selection.impl.F.Size_search.placement
              e.Selection.mapped
          in
          Float.max acc r.F.Timing.critical_path_ns)
        0. efpgas
    in
    let security =
      match cfg.C.Flow_config.score_mode with
      | C.Flow_config.Heuristic -> best.Selection.total_score
      | C.Flow_config.Measured -> (
        let verdicts =
          List.filter_map (fun (e : Selection.efpga_impl) -> e.Selection.verdict)
            efpgas
        in
        match verdicts with
        | [] -> best.Selection.total_score
        | vs ->
          List.fold_left (fun acc v -> acc +. Scorer.resilience cfg v) 0. vs
          /. float_of_int (List.length vs))
    in
    Some
      { pm_area_um2 = area; pm_timing_ns = timing; pm_security = security;
        pm_security_mode = cfg.C.Flow_config.score_mode }

let summarize (name : string) (flow : Flow.t) : sweep_point =
  let s = flow.Flow.char_stats in
  let a = flow.Flow.selection.Selection.attack in
  { sp_name = name;
    sp_feasible = flow.Flow.selection.Selection.best <> None;
    sp_fabrics = solution_fabrics flow;
    sp_metrics = solution_metrics flow;
    sp_hits = s.Characterize.cache_hits;
    sp_computed = s.Characterize.computed;
    sp_skipped = s.Characterize.skipped;
    sp_attacks_run = a.Scorer.attacks_run;
    sp_attacks_cached = a.Scorer.attacks_cached;
    sp_attacks_inconclusive = a.Scorer.attacks_inconclusive;
    sp_times = flow.Flow.times;
    sp_diags = flow.Flow.diags;
    sp_resumed = false }

(* A point's identity is everything that can change its result: the
   name keys the row, the (config, source) marshal digests the work.
   The [v3] prefix versions the summary encoding itself — widening
   [sweep_point] (v2 added the attack counters, v3 the advisor's
   area/timing/security metrics) is a format change, not a silently
   garbled resume. *)
let point_key (name : string) (req : Flow.request) : string =
  Printf.sprintf "sweep-point v3 %s %s" name
    (Digest.to_hex
       (Digest.string
          (Marshal.to_string (req.Flow.config, req.Flow.source) [])))

(** Run a sweep with per-point checkpointing: each completed point's
    summary is written to the checkpoint store as soon as it finishes,
    and (with [resume], the default) points already checkpointed — by a
    previous process, however it died — are served back with
    [sp_resumed = true] and zero recomputation. Fault site
    ["engine.sweep_point"] is hit before each computed point.

    Ordering guarantee for streaming consumers: [on_point] fires only
    AFTER the point's checkpoint write. A crash anywhere in the window
    between "point computed" and "row delivered" therefore has exactly
    two observable outcomes — the checkpoint was written (the rerun
    resumes the point and re-delivers its row), or it was not (the
    rerun recomputes the point and delivers its row). A lost row always
    means "will be recomputed or re-delivered", never "silently skipped
    on resume". Tested in test/test_engine.ml.

    All points run through this engine's single characterization memo
    AND its single attack-verdict pool: grid entries whose configs
    differ only in knobs outside {!C.Flow_config.attack_digest} (e.g.
    [attack_area_weight], [score_mode]) re-rank cached verdicts without
    re-running a single attack. *)
let run_sweep ?(shared = false) ?(resume = true)
    ?(on_point : (sweep_point -> unit) option) (t : t)
    (points : (string * Flow.request) list) : sweep_point list =
  let runner = if shared then run_shared else run in
  List.map
    (fun (name, req) ->
      let key = point_key name req in
      let checkpointed =
        if resume then
          Option.bind t.sweep_store (fun store -> Disk_cache.load store ~key)
        else None
      in
      let sp =
        match checkpointed with
        | Some sp -> { sp with sp_resumed = true }
        | None ->
          Fi.hit t.faults "engine.sweep_point";
          let sp = summarize name (runner t req) in
          Option.iter
            (fun store -> Disk_cache.store store ~key sp)
            t.sweep_store;
          sp
      in
      (* deliberately after the checkpoint write: if the observer
         raises (a streaming client hung up), the completed point is
         already durable and a rerun resumes it for free *)
      Option.iter (fun f -> f sp) on_point;
      sp)
    points
