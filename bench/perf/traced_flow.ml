(* The flow of [Flow.run_request] + [Flow.redact], decomposed into the
   public calls of each layer so every call runs inside a span: parse,
   elaborate, dataflow + filtering, clustering, characterization (one
   [cluster_circuit] and one [Size_search.minimum] per unique
   [Characterize.keyer] key), selection (with the measured attacks run
   up front through [Selection.Scorer.measure]) and redaction. The
   traced run asserts that this decomposition redacts byte-identically
   to the library's own flow, so the two cannot drift apart unnoticed.

   Work counters are accumulated into [counters] as the calls return. *)

module V = Alice_verilog
module N = Alice_netlist
module F = Alice_fabric
module C = Alice_config
module A = Alice
module Scorer = Alice.Selection.Scorer

type counters = {
  mutable requests : int;
  mutable unique : int;
  mutable computed : int;
  mutable hits : int;
  mutable luts : int;
  mutable widths_tried : int;
  mutable infeasible : int;
  mutable candidates : int;
  mutable clusters : int;
  mutable valid : int;
  mutable solutions : int;
  mutable attack_run : int;
  mutable attack_cached : int;
  mutable attack_inconclusive : int;
  mutable dips : int;
  mutable conflicts : int;
  mutable learnt_reused : int;
  mutable solver_calls : int;
  mutable verilog_bytes : int;
}

let counters () =
  { requests = 0; unique = 0; computed = 0; hits = 0; luts = 0;
    widths_tried = 0; infeasible = 0; candidates = 0; clusters = 0;
    valid = 0; solutions = 0; attack_run = 0; attack_cached = 0;
    attack_inconclusive = 0; dips = 0; conflicts = 0; learnt_reused = 0;
    solver_calls = 0; verilog_bytes = 0 }

(* Characterizations by [Characterize.keyer] key: the traced run's
   cache. [char_cache] wraps the same table for [Flow.run_request], so
   traced and untraced requests can share one store. *)
type store = (string, A.Characterize.characterization) Hashtbl.t

let char_cache (store : store) : A.Characterize.cache =
  A.Characterize.create_cache
    ~load:(Hashtbl.find_opt store)
    ~save:(Hashtbl.replace store) ()

(* Widths [Size_search.minimum] attempted: it walks up from the smallest
   permitted width to the first feasible one, or through them all. *)
let widths_tried (cfg : C.Flow_config.t) = function
  | Ok (impl : F.Size_search.implementation) ->
    impl.F.Size_search.fabric.F.Fabric.width
    - max 1 cfg.C.Flow_config.min_fabric_size + 1
  | Error F.Size_search.Empty_circuit -> 0
  | Error (F.Size_search.Too_large _ | F.Size_search.Unroutable _) ->
    max 0 (cfg.C.Flow_config.max_fabric_size - max 1 cfg.C.Flow_config.min_fabric_size + 1)

let characterize (ctr : counters) (store : store) design cfg clusters =
  let key_of = A.Characterize.keyer design cfg in
  let keyed = List.map (fun cl -> (key_of cl, cl)) clusters in
  let seen = Hashtbl.create 64 in
  let uniques =
    List.filter
      (fun (k, _) ->
        if Hashtbl.mem seen k then false
        else (Hashtbl.add seen k (); true))
      keyed
  in
  let hits = List.length (List.filter (fun (k, _) -> Hashtbl.mem store k) uniques) in
  let computed = ref 0 in
  List.iter
    (fun (key, rep) ->
      if not (Hashtbl.mem store key) then begin
        incr computed;
        let mapped =
          Span.with_ "netlist" (fun () -> A.Characterize.cluster_circuit design cfg rep)
        in
        ctr.luts <- ctr.luts + N.Circuit.lut_count mapped;
        let result =
          Span.with_ "fabric" (fun () ->
              F.Size_search.minimum (F.Arch.of_config cfg)
                ~min_size:cfg.C.Flow_config.min_fabric_size
                ~max_size:cfg.C.Flow_config.max_fabric_size
                ~target_utilization:cfg.C.Flow_config.target_utilization mapped)
        in
        ctr.widths_tried <- ctr.widths_tried + widths_tried cfg result;
        let outcome =
          match result with
          | Ok impl -> A.Characterize.Implemented impl
          | Error f ->
            ctr.infeasible <- ctr.infeasible + 1;
            A.Characterize.Infeasible f
        in
        Hashtbl.replace store key
          { A.Characterize.cluster = rep; outcome; mapped = Some mapped }
      end)
    uniques;
  ctr.unique <- ctr.unique + List.length uniques;
  ctr.hits <- ctr.hits + hits;
  ctr.computed <- ctr.computed + !computed;
  ( List.map
      (fun (key, cluster) -> { (Hashtbl.find store key) with A.Characterize.cluster })
      keyed,
    { A.Characterize.clusters = List.length clusters;
      unique = List.length uniques; cache_hits = hits; computed = !computed;
      skipped = 0 } )

(* Attack work of a verdict list: each distinct verdict once (aliasing
   candidates share one physical verdict). *)
let count_verdicts (ctr : counters) (verdicts : Scorer.verdict list) =
  let distinct =
    List.fold_left
      (fun acc v -> if List.memq v acc then acc else v :: acc)
      [] verdicts
  in
  List.iter
    (fun (v : Scorer.verdict) ->
      ctr.dips <- ctr.dips + v.Scorer.v_iterations;
      ctr.conflicts <- ctr.conflicts + v.Scorer.v_conflicts)
    distinct

let add_attack_stats (ctr : counters) (s : Scorer.stats) =
  ctr.attack_run <- ctr.attack_run + s.Scorer.attacks_run;
  ctr.attack_cached <- ctr.attack_cached + s.Scorer.attacks_cached;
  ctr.attack_inconclusive <- ctr.attack_inconclusive + s.Scorer.attacks_inconclusive;
  ctr.learnt_reused <- ctr.learnt_reused + s.Scorer.attacks_reused

let select (ctr : counters) ?attack_cache cfg characterized ~total_instances =
  match cfg.C.Flow_config.score_mode with
  | C.Flow_config.Heuristic ->
    A.Selection.run ~scorer:Scorer.Heuristic cfg characterized ~total_instances
  | C.Flow_config.Measured ->
    let cache =
      match attack_cache with Some c -> c | None -> Scorer.create_cache ()
    in
    (* the candidates Selection.run scores: IsValid of Algorithm 3 *)
    let candidates =
      List.filter_map
        (fun (c : A.Characterize.characterization) ->
          match (c.A.Characterize.outcome, c.A.Characterize.mapped) with
          | A.Characterize.Implemented impl, Some mapped
            when impl.F.Size_search.clb_util >= cfg.C.Flow_config.min_clb_utilization ->
            Some (impl.F.Size_search.fabric, mapped)
          | _ -> None)
        characterized
    in
    let calls = Alice_sat.Solver.total_calls () in
    let verdicts, stats =
      Span.with_ "attack" (fun () -> Scorer.measure ~cache:(Some cache) cfg candidates)
    in
    ctr.solver_calls <- ctr.solver_calls + Alice_sat.Solver.total_calls () - calls;
    add_attack_stats ctr stats;
    count_verdicts ctr verdicts;
    let r =
      A.Selection.run ~scorer:(Scorer.Measured { cache = Some cache }) cfg
        characterized ~total_instances
    in
    if r.A.Selection.attack.Scorer.attacks_run <> 0 then
      failwith "selection attacked a candidate the traced attack span missed";
    r

(* [Flow.run_request] on [text] under [cfg], characterizing through
   [store]. *)
let run (ctr : counters) ~(store : store) ?attack_cache (cfg : C.Flow_config.t)
    (text : string) : A.Flow.t =
  let ast, errors = Span.with_ "verilog.parse" (fun () -> V.Parser.parse_with_recovery text) in
  if errors <> [] then failwith "the benchmark source has syntax errors";
  let design =
    Span.with_ "verilog.elaborate" (fun () -> V.Elaborate.elaborate ?top:cfg.C.Flow_config.top ast)
  in
  let t0 = Unix.gettimeofday () in
  let filtering, df =
    Span.with_ "filtering" (fun () ->
        let df = Alice_analysis.Dataflow.build design in
        (A.Filtering.run df cfg, df))
  in
  let t1 = Unix.gettimeofday () in
  let clusters = Span.with_ "clustering" (fun () -> A.Clustering.run df cfg filtering) in
  let t2 = Unix.gettimeofday () in
  let characterized, char_stats =
    Span.with_ "characterize" (fun () -> characterize ctr store design cfg clusters)
  in
  let selection =
    Span.with_ "selection" (fun () ->
        select ctr ?attack_cache cfg characterized
          ~total_instances:(List.length (A.Filtering.candidate_instances filtering)))
  in
  let t3 = Unix.gettimeofday () in
  ctr.requests <- ctr.requests + 1;
  ctr.candidates <- ctr.candidates + A.Filtering.candidate_count filtering;
  ctr.clusters <- ctr.clusters + List.length clusters;
  ctr.valid <- ctr.valid + List.length selection.A.Selection.valid;
  ctr.solutions <- ctr.solutions + A.Selection.solution_count selection;
  { A.Flow.config = cfg; ast; design; filtering; clusters; characterized;
    selection; diags = [];
    times = { A.Flow.filtering_s = t1 -. t0; clustering_s = t2 -. t1; selection_s = t3 -. t2 };
    char_stats }

(* [Flow.redact ~view:Programmed]. *)
let redact (ctr : counters) (flow : A.Flow.t) : A.Redact.redacted option =
  Span.with_ "redact" (fun () ->
      Option.map
        (fun best ->
          let r = A.Redact.run ~view:A.Redact.Programmed flow.A.Flow.design flow.A.Flow.ast best in
          ctr.verilog_bytes <- ctr.verilog_bytes + String.length r.A.Redact.verilog;
          r)
        flow.A.Flow.selection.A.Selection.best)

(* The advisor's sweep row for a flow, as [Engine.run_sweep] summarizes
   it (the objectives of [Engine.point_metrics]). *)
let sweep_point (name : string) (flow : A.Flow.t) : A.Engine.sweep_point =
  let metrics =
    Option.map
      (fun (best : A.Selection.solution) ->
        let cfg = flow.A.Flow.config in
        let efpgas = best.A.Selection.efpgas in
        let fold f = List.fold_left f 0.0 efpgas in
        let security =
          match
            (cfg.C.Flow_config.score_mode,
             List.filter_map (fun (e : A.Selection.efpga_impl) -> e.A.Selection.verdict) efpgas)
          with
          | C.Flow_config.Heuristic, _ | C.Flow_config.Measured, [] -> best.A.Selection.total_score
          | C.Flow_config.Measured, vs ->
            List.fold_left (fun acc v -> acc +. Scorer.resilience cfg v) 0.0 vs
            /. float_of_int (List.length vs)
        in
        { A.Engine.pm_area_um2 =
            fold (fun acc e -> acc +. F.Area.fabric_area e.A.Selection.impl.F.Size_search.fabric);
          pm_timing_ns =
            fold (fun acc e ->
                Float.max acc
                  (F.Timing.estimate e.A.Selection.impl.F.Size_search.placement e.A.Selection.mapped)
                    .F.Timing.critical_path_ns);
          pm_security = security;
          pm_security_mode = cfg.C.Flow_config.score_mode })
      flow.A.Flow.selection.A.Selection.best
  in
  let s = flow.A.Flow.char_stats and a = flow.A.Flow.selection.A.Selection.attack in
  { A.Engine.sp_name = name;
    sp_feasible = flow.A.Flow.selection.A.Selection.best <> None;
    sp_fabrics = A.Engine.solution_fabrics flow;
    sp_metrics = metrics;
    sp_hits = s.A.Characterize.cache_hits;
    sp_computed = s.A.Characterize.computed;
    sp_skipped = s.A.Characterize.skipped;
    sp_attacks_run = a.Scorer.attacks_run;
    sp_attacks_cached = a.Scorer.attacks_cached;
    sp_attacks_inconclusive = a.Scorer.attacks_inconclusive;
    sp_times = flow.A.Flow.times;
    sp_diags = [];
    sp_resumed = false }

(* Total fabric area of a flow's selected solution. *)
let solution_area (flow : A.Flow.t) : float option =
  Option.map
    (fun (best : A.Selection.solution) ->
      List.fold_left
        (fun acc (e : A.Selection.efpga_impl) ->
          acc +. F.Area.fabric_area e.A.Selection.impl.F.Size_search.fabric)
        0.0 best.A.Selection.efpgas)
    flow.A.Flow.selection.A.Selection.best
