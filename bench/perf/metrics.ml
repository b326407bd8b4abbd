(* Every metric the benchmark can report, and the result record one
   workload run produces. BENCHMARK.json selects which of these the
   single-workload entry point prints and holds their regression
   bounds; the definitions (unit, direction, layer, what they move)
   live here. *)

module J = Alice_config.Json_lite

type better = Lower | Higher

type def = {
  name : string;
  unit_ : string;
  better : better;
  layer : string;  (* "" for end-to-end metrics *)
  note : string;   (* end-to-end: where reported; layer: what it moves *)
  counter : bool;  (* a deterministic work counter: any change is flagged *)
}

let e2e ?(counter = false) name unit_ better note =
  { name; unit_; better; layer = ""; note; counter }

let end_to_end =
  [ e2e "setup_s" "s" Lower "median of three set-ups in the run";
    e2e "requests_per_s" "1/s" Higher "completed requests / timed wall";
    e2e "latency_p50_ms" "ms" Lower "request latency, heavy requests";
    e2e "latency_p90_ms" "ms" Lower "request latency, heavy requests";
    e2e "cpu_per_req_ms" "ms" Lower "user+sys CPU per request, server included";
    e2e "peak_rss_mb" "MB" Lower "VmHWM; the server's on serve_mixed";
    e2e ~counter:true "qor_area_um2" "um2" Lower
      "mean summed area of the chosen fabrics per solved request";
    e2e "ping_p90_ms" "ms" Lower "serve_mixed only: ping latency under load";
    e2e ~counter:true "qor_resilience" "1" Higher
      "attack_measured only: mean measured resilience of the chosen fabrics";
    e2e "failed_frac" "1" Lower "(errors + refusals + oracle mismatches) / attempted" ]

let layer ?(counter = false) layer name unit_ better note =
  { name; unit_; better; layer; note; counter }

let characterize_moves = "requests_per_s, latency_p90_ms on redact_cold"
let attack_moves = "latency_p50_ms, latency_p90_ms on attack_measured"
let hot_moves = "latency_p50_ms on serve_mixed"

let layers =
  [ layer "characterize" "characterize.ms" "ms/req" Lower characterize_moves;
    layer "characterize" "characterize.unique" "count/req" Lower characterize_moves;
    layer ~counter:true "characterize" "characterize.computed" "count/req" Lower
      (characterize_moves ^ "; requests_per_s on advise_grid");
    layer "characterize" "characterize.cache_hits" "count/req" Higher characterize_moves;
    layer "characterize" "characterize.hit_ratio" "1" Higher characterize_moves;
    layer "netlist" "netlist.synth_lutmap_ms" "ms/req" Lower
      (characterize_moves ^ "; requests_per_s on advise_grid");
    layer "netlist" "netlist.luts" "count/req" Lower characterize_moves;
    layer "fabric" "fabric.size_search_ms" "ms/req" Lower characterize_moves;
    layer ~counter:true "fabric" "fabric.widths_tried" "count/req" Lower characterize_moves;
    layer "fabric" "fabric.infeasible" "count/req" Lower characterize_moves;
    layer "attack" "attack.ms" "ms/req" Lower attack_moves;
    layer "attack" "attack.run" "count/req" Lower attack_moves;
    layer "attack" "attack.cached" "count/req" Higher attack_moves;
    layer "attack" "attack.inconclusive" "count/req" Lower attack_moves;
    layer "attack" "attack.useful_ratio" "1" Higher attack_moves;
    layer ~counter:true "attack" "attack.dips" "count/req" Lower attack_moves;
    layer ~counter:true "attack" "attack.conflicts" "count/req" Lower attack_moves;
    layer "attack" "attack.learnt_reused" "count/req" Higher attack_moves;
    layer ~counter:true "sat" "sat.solver_calls" "count/req" Lower attack_moves;
    layer "verilog" "verilog.parse_ms" "ms/req" Lower hot_moves;
    layer "verilog" "verilog.elaborate_ms" "ms/req" Lower hot_moves;
    layer "filtering" "filtering.ms" "ms/req" Lower hot_moves;
    layer "filtering" "filtering.candidates" "count/req" Lower hot_moves;
    layer "clustering" "clustering.ms" "ms/req" Lower hot_moves;
    layer "clustering" "clustering.clusters" "count/req" Lower hot_moves;
    layer "selection" "selection.ms" "ms/req" Lower hot_moves;
    layer "selection" "selection.valid" "count/req" Lower hot_moves;
    layer ~counter:true "selection" "selection.solutions" "count/req" Lower hot_moves;
    layer "redact" "redact.ms" "ms/req" Lower hot_moves;
    layer "redact" "redact.verilog_bytes" "bytes/req" Lower hot_moves;
    layer "engine" "engine.disk_hits" "count/req" Higher "latency_p90_ms on serve_mixed";
    layer "engine" "engine.disk_misses" "count/req" Lower "latency_p90_ms on serve_mixed";
    layer "engine" "engine.disk_stores" "count/req" Lower "latency_p90_ms on serve_mixed";
    layer "advisor" "advisor.points" "count/grid" Lower "requests_per_s on advise_grid";
    layer "advisor" "advisor.deduped" "count/grid" Higher "requests_per_s on advise_grid";
    layer "advisor" "advisor.front" "count/grid" Lower "requests_per_s on advise_grid";
    layer "advisor" "advisor.rank_ms" "ms/grid" Lower "requests_per_s on advise_grid";
    layer "server" "server.rtt_ms" "ms/req" Lower "latency_p50_ms, ping_p90_ms on serve_mixed";
    layer "server" "server.phases_ms" "ms/req" Lower "latency_p50_ms on serve_mixed";
    layer "server" "server.overhead_ms" "ms/req" Lower
      "latency_p50_ms, ping_p90_ms on serve_mixed";
    layer "server" "server.cache_hits" "count/req" Higher "latency_p50_ms on serve_mixed";
    layer "server" "server.cache_computed" "count/req" Lower "latency_p50_ms on serve_mixed";
    layer "server" "server.rejected_busy" "count" Lower "ping_p90_ms on serve_mixed";
    layer "trace" "trace.overhead_ms" "ms/req" Lower
      "none: traced minus untraced wall per request" ]

let all = end_to_end @ layers

let find name = List.find_opt (fun d -> d.name = name) all

(* Raw ("raw.<metric>") values carry their metric's unit; the run's
   machine slowness is a ratio. *)
let rec unit_of name =
  match find name with
  | Some d -> d.unit_
  | None when String.starts_with ~prefix:"raw." name ->
    unit_of (String.sub name 4 (String.length name - 4))
  | None -> "1"

(* ---------- one workload run ---------- *)

type result = {
  workload : string;
  seed : int;
  seconds : float;
  scale : string;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  decks : int;
  metrics : (string * float) list;   (* end-to-end *)
  counters : (string * float) list;  (* deterministic work, per request *)
  layers : (string * float) list;    (* per layer; traced runs only *)
  errors : string list;
}

let values_json vs =
  J.Obj
    (List.map
       (fun (name, v) ->
         (name, J.Obj [ ("value", J.Float v); ("unit", J.String (unit_of name)) ]))
       vs)

let to_json (r : result) : J.t =
  J.Obj
    [ ("workload", J.String r.workload);
      ("seed", J.Int r.seed);
      ("seconds", J.Float r.seconds);
      ("scale", J.String r.scale);
      ("traced", J.Bool r.traced);
      ("correct", J.Bool r.correct);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ("decks", J.Int r.decks);
      ("metrics", values_json r.metrics);
      ("counters", values_json r.counters);
      ("layers", values_json r.layers);
      ("errors", J.List (List.map (fun e -> J.String e) r.errors)) ]

let values_of_json = function
  | Some (J.Obj kvs) ->
    List.filter_map
      (fun (name, v) ->
        match J.find v "value" with
        | Some (J.Float f) -> Some (name, f)
        | Some (J.Int i) -> Some (name, float_of_int i)
        | Some J.Null -> Some (name, nan)
        | _ -> None)
      kvs
  | _ -> []

let of_json (j : J.t) : result =
  { workload = J.get_string j "workload";
    seed = J.get_int ~default:0 j "seed";
    seconds = J.get_float ~default:0.0 j "seconds";
    scale = J.get_string ~default:"full" j "scale";
    traced = J.get_bool ~default:false j "traced";
    correct = J.get_bool ~default:false j "correct";
    attempted = J.get_int ~default:0 j "attempted";
    failed = J.get_int ~default:0 j "failed";
    decks = J.get_int ~default:0 j "decks";
    metrics = values_of_json (J.find j "metrics");
    counters = values_of_json (J.find j "counters");
    layers = values_of_json (J.find j "layers");
    errors =
      (match J.find j "errors" with
      | Some (J.List l) -> List.filter_map (function J.String s -> Some s | _ -> None) l
      | _ -> []) }
