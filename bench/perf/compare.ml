(* [perf.exe compare BASE.json NEW.json]: one row per workload x
   end-to-end metric with each side's median and quartiles over its
   runs. A median that moved by more than the metric's bound is a
   regression or an improvement; when either side's spread exceeds the
   bound the row is unresolved, unless every run of one side beats
   every run of the other. Deterministic counters may not change at
   all. *)

module J = Alice_config.Json_lite

(* Every workload result in a result file, across all its runs. *)
let load (path : string) : Metrics.result list =
  let j = J.parse (In_channel.with_open_bin path In_channel.input_all) in
  match J.find j "runs" with
  | Some (J.List runs) ->
    List.concat_map
      (fun run ->
        match J.find run "workloads" with
        | Some (J.List ws) -> List.map Metrics.of_json ws
        | _ -> [])
      runs
  | _ -> failwith (path ^ ": not a benchmark result file")

(* Regression bounds: BENCHMARK.json's end_to_end entries, then the
   defaults for metrics it does not list. *)
let bounds (benchmark : string) : (string * float) list =
  let listed =
    match J.find (J.parse (In_channel.with_open_bin benchmark In_channel.input_all)) "end_to_end" with
    | Some (J.List ms) ->
      List.map (fun m -> (J.get_string m "name", J.get_float ~default:0.0 m "bound")) ms
    | _ -> []
  in
  listed @ [ ("ping_p90_ms", 0.25); ("qor_resilience", 0.0); ("failed_frac", 0.0) ]

type verdict = Same | Improved | Regression | Unresolved | Changed | Failed

let verdict_label = function
  | Same -> "same"
  | Improved -> "improved"
  | Regression -> "REGRESSION"
  | Unresolved -> "unresolved"
  | Changed -> "COUNTER CHANGED"
  | Failed -> "FAILED"

(* How much worse [nw] is than [base], as a share of [base]. *)
let worse (d : Metrics.def) ~base nw =
  let rel = (nw -. base) /. Float.abs base in
  match d.Metrics.better with Metrics.Lower -> rel | Metrics.Higher -> -.rel

let judge (d : Metrics.def) ~bound (base : float list) (nw : float list) : verdict =
  let _, bm, _ = Stats.quartiles base and _, nm, _ = Stats.quartiles nw in
  let spread xs =
    let q1, m, q3 = Stats.quartiles xs in
    if m = 0.0 then if q3 = q1 then 0.0 else infinity else (q3 -. q1) /. Float.abs m
  in
  let beats a b =
    (* every run of [a] better than every run of [b] *)
    List.for_all (fun x -> List.for_all (fun y -> worse d ~base:y x < 0.0) b) a
  in
  if d.Metrics.name = "failed_frac" then if nm > 0.0 then Failed else Same
  else if d.Metrics.counter then
    (* per-request means of exact counts: equal up to float summation *)
    if Float.abs (bm -. nm) <= 1e-9 *. Float.max (Float.abs bm) (Float.abs nm) then Same
    else Changed
  else if bm = 0.0 then if nm = 0.0 then Same else Unresolved
  else if spread base > bound || spread nw > bound then
    if beats nw base then Improved else if beats base nw then Regression else Unresolved
  else
    let w = worse d ~base:bm nm in
    if w > bound then Regression else if w < -.bound then Improved else Same

let values_of pick (rs : Metrics.result list) workload name =
  List.filter_map
    (fun (r : Metrics.result) ->
      if r.Metrics.workload <> workload then None
      else
        match List.assoc_opt name (pick r) with
        | Some v when Float.is_finite v -> Some v
        | _ -> None)
    rs

let run ~(benchmark : string) (base_path : string) (new_path : string) : int =
  let base = load base_path and nw = load new_path in
  let bounds = bounds benchmark in
  let workloads =
    List.sort_uniq compare (List.map (fun (r : Metrics.result) -> r.Metrics.workload) (base @ nw))
  in
  let bad = ref 0 in
  let row workload (d : Metrics.def) ~bound bv nv =
    let q xs = Stats.quartiles xs in
    let b1, bm, b3 = q bv and n1, nm, n3 = q nv in
    let v = judge d ~bound bv nv in
    (match v with Regression | Changed | Failed -> incr bad | Same | Improved | Unresolved -> ());
    Printf.printf "%-16s %-24s %12.4g [%10.4g %10.4g] %12.4g [%10.4g %10.4g] %+8.2f%% %6.1f%%  %s\n"
      workload d.Metrics.name bm b1 b3 nm n1 n3
      (if bm = 0.0 then 0.0 else 100.0 *. worse d ~base:bm nm)
      (100.0 *. bound) (verdict_label v)
  in
  Printf.printf "%-16s %-24s %12s %23s %12s %23s %9s %7s  %s\n" "workload" "metric"
    "base median" "[q1 q3]" "new median" "[q1 q3]" "worse" "bound" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (d : Metrics.def) ->
          let bv = values_of (fun r -> r.Metrics.metrics) base w d.Metrics.name
          and nv = values_of (fun r -> r.Metrics.metrics) nw w d.Metrics.name in
          if bv <> [] && nv <> [] then
            row w d ~bound:(Option.value (List.assoc_opt d.Metrics.name bounds) ~default:0.25) bv nv)
        Metrics.end_to_end;
      (* deterministic work counters, wherever both sides report them *)
      List.iter
        (fun (d : Metrics.def) ->
          if d.Metrics.counter && d.Metrics.layer <> "" then
            let pick r = r.Metrics.counters @ r.Metrics.layers in
            let bv = values_of pick base w d.Metrics.name
            and nv = values_of pick nw w d.Metrics.name in
            if bv <> [] && nv <> [] then row w d ~bound:0.0 bv nv)
        Metrics.layers)
    workloads;
  if !bad > 0 then begin
    Printf.printf "%d row(s) regressed, failed or changed a deterministic counter\n" !bad;
    1
  end
  else 0
