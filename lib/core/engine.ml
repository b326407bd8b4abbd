(** The reusable flow engine: a long-lived handle owning the
    characterization and attack-verdict memo tables — in-memory,
    mutex-guarded, backed (unless caching is off) by the persistent
    {!Disk_cache} stores — through which any number of flow
    {!Flow.request}s run.

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
    [W0702] warning, an unwritable store warns once ([W0703]) and stops
    writing, and [routed] decides where both go. The engine never
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
  attack_memo : Scorer.cache;
      (* measured-selection attack verdicts, shared across runs like
         [memo] *)
  stores : Disk_cache.t list;
      (* the characterization store at the cache root, then its attack/
         and sweep/ namespaces (one value type per store); [] with
         caching off. Only the root store is byte-bounded: verdicts and
         sweep summaries are tiny, and evicting one silently costs a
         recomputation *)
  sweep_store : Disk_cache.t option;  (* per-point sweep checkpoints *)
  engine_sink : bool Atomic.t;  (* [set_warning_sink] was called *)
  faults : Fi.t;
}

let create ?(cache = true) ?cache_dir ?max_bytes ?faults () : t =
  let faults = match faults with Some f -> f | None -> Fi.global () in
  let stores =
    if not cache then []
    else begin
      let disk = Disk_cache.create ?root:cache_dir ?max_bytes ~faults () in
      let namespace sub =
        Disk_cache.create ~root:(Filename.concat (Disk_cache.root disk) sub)
          ~faults ()
      in
      [ disk; namespace "attack"; namespace "sweep" ]
    end
  in
  let store i = List.nth_opt stores i in
  let load s key = Disk_cache.load s ~key in
  let save s key v = Disk_cache.store s ~key v in
  { memo =
      Characterize.create_cache ?load:(Option.map load (store 0))
        ?save:(Option.map save (store 0)) ();
    attack_memo =
      Scorer.create_cache ?load:(Option.map load (store 1))
        ?save:(Option.map save (store 1)) ();
    stores; sweep_store = store 2; engine_sink = Atomic.make false; faults }

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

let cache_root (t : t) : string option =
  Option.map Disk_cache.root (List.nth_opt t.stores 0)

let disk_stats (t : t) : Disk_cache.stats option =
  Option.map Disk_cache.stats (List.nth_opt t.stores 0)

let stage_stats (t : t) : Characterize.stage_stats list =
  Characterize.stage_stats t.memo

let set_warning_sink (t : t) (sink : D.t -> unit) : unit =
  List.iter (fun store -> Disk_cache.set_sink store sink) t.stores;
  Atomic.set t.engine_sink true

(* Run [f] on [req] given a collector of its own, under the warning
   routing rule: once an engine-wide sink is installed the stores'
   sinks are left alone, so overlapping calls from several threads are
   safe; otherwise every store warns into the request's collector while
   [f] runs. *)
let routed (t : t) (req : Flow.request) (f : Flow.request -> 'a) : 'a =
  let collector =
    match req.Flow.diags with Some c -> c | None -> D.Collector.create ()
  in
  let req = { req with Flow.diags = Some collector } in
  if Atomic.get t.engine_sink then f req
  else begin
    List.iter
      (fun store -> Disk_cache.set_sink store (D.Collector.add collector))
      t.stores;
    Fun.protect
      ~finally:(fun () -> List.iter Disk_cache.clear_sink t.stores)
      (fun () -> f req)
  end

let run_request (t : t) (req : Flow.request) : Flow.t =
  Flow.run_request ~cache:t.memo ~attack_cache:t.attack_memo req

(** Run one request through the engine's caches. Cache-degradation
    warnings go where [routed] sends them; per-run cache accounting is
    on the result's [char_stats]. *)
let run (t : t) (req : Flow.request) : Flow.t = routed t req (run_request t)

let gc ?max_bytes (t : t) : Disk_cache.gc_stats option =
  match t.stores with
  | [] -> None
  | disk :: namespaces ->
    let stats = Disk_cache.gc ?max_bytes disk in
    (* freed space un-wedges the checkpoint and attack stores too *)
    List.iter Disk_cache.enable_writes namespaces;
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
let run_sweep ?(resume = true) ?(on_point : (sweep_point -> unit) option)
    (t : t) (points : (string * Flow.request) list) : sweep_point list =
  List.map
    (fun (name, req) ->
      let key = point_key name req in
      (* the checkpoint is loaded under the point's own collector, so an
         unusable one is reported against the point it recomputes *)
      let sp =
        routed t req (fun req ->
            let checkpointed =
              if resume then
                Option.bind t.sweep_store (fun store ->
                    Disk_cache.load store ~key)
              else None
            in
            match checkpointed with
            | Some sp -> { sp with sp_resumed = true }
            | None ->
              Fi.hit t.faults "engine.sweep_point";
              let sp = summarize name (run_request t req) in
              Option.iter
                (fun store -> Disk_cache.store store ~key sp)
                t.sweep_store;
              sp)
      in
      (* deliberately after the checkpoint write: if the observer
         raises (a streaming client hung up), the completed point is
         already durable and a rerun resumes it for free *)
      Option.iter (fun f -> f sp) on_point;
      sp)
    points
