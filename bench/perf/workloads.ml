(* The four workloads. Each one sets up (three times, reporting the
   median), then serves in a closed loop as many whole decks of requests
   as fill [seconds] of request time at the reference speed
   ({!Inputs.decks}), checks every output, and reports its end-to-end
   metrics. Time metrics are stated at the reference machine speed
   ({!Speed}); the raw times are reported too.

   With a trace directory the workload runs twice over the same decks:
   untraced, then with spans on. The traced pass must reproduce the
   untraced outputs byte for byte; it reports the per-layer metrics and
   the tracing overhead, and writes DIR/<workload>.trace.json. *)

module A = Alice
module C = Alice_config
module J = Alice_config.Json_lite
module I = Inputs
module S = Alice_server
module Fi = Alice_fault.Fault
module T = Traced_flow

type opts = {
  scale : I.scale;
  seed : int;
  seconds : float;
  trace_dir : string option;
}

let now = Unix.gettimeofday

let scratch name =
  Filename.concat ".perf" (Printf.sprintf "%s-%d" name (Unix.getpid ()))

let source (d : I.design) = d.I.bench.Alice_benchmarks.Suite.source

let text (d : I.design) = A.Flow.Text { text = source d; file = None }

(* ---------- measurement ---------- *)

type setup = { setup_raw : float; setup_norm : float }

(* Set up [runs] times; the median time, raw and at reference speed.
   Earlier set-ups are handed to [discard]. *)
let timed_setup (o : opts) ?(discard = ignore) (f : unit -> 'a) : setup * 'a =
  let runs = match o.scale with I.Full -> 3 | I.Smoke -> 1 in
  let probes m = for _ = 1 to 3 do Speed.probe m done in
  let rec go i raws norms prev =
    Option.iter discard prev;
    Gc.compact ();
    let m = Speed.meter () in
    probes m;
    let t0 = now () in
    let v = f () in
    let dt = now () -. t0 in
    probes m;
    let raws = dt :: raws and norms = (dt /. Speed.slowness m) :: norms in
    if i >= runs then ({ setup_raw = Stats.median raws; setup_norm = Stats.median norms }, v)
    else go (i + 1) raws norms (Some v)
  in
  go 1 [] [] None

(* The timed part of a pass: request wall and CPU seconds, and how slow
   the machine ran meanwhile. *)
type window = {
  decks : int;
  wall : float;
  cpu : float;
  requests : int;
  slowness : float;
}

(* One client, one request at a time, decks [0 .. decks-1]. Before each
   request the heap is compacted (a cold request should not pay for its
   predecessors' garbage) and the speed kernel is timed into [meter];
   [after] sees each output, with its raw latency, outside the timed
   span. *)
let closed_loop ~(meter : Speed.meter) ~(decks : int) ~(deck : int -> 'req list)
    ~(exec : 'req -> 'out) ~(after : int -> 'req -> float -> ('out, string) result -> unit) :
    window =
  let wall = ref 0.0 and cpu = ref 0.0 and n = ref 0 in
  for k = 0 to decks - 1 do
    List.iter
      (fun req ->
        Gc.compact ();
        Speed.probe meter;
        Span.request := !n;
        let c0 = Proc.self_cpu_s () and t0 = now () in
        let out = try Ok (exec req) with e -> Error (Printexc.to_string e) in
        let dt = now () -. t0 in
        cpu := !cpu +. (Proc.self_cpu_s () -. c0);
        wall := !wall +. dt;
        after !n req dt out;
        incr n)
      (deck k)
  done;
  Speed.probe meter;
  { decks; wall = !wall; cpu = !cpu; requests = !n; slowness = Speed.slowness meter }

(* ---------- accounting shared by the workloads ---------- *)

type acc = {
  mutable latencies : (string * float) list;  (* request kind, raw seconds *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable areas : float list;
  mutable resiliences : float list;
  ctr : T.counters;  (* work counters of the untraced pass *)
  outputs : (int, string) Hashtbl.t;  (* request index -> output digest *)
  reference : (int, string) Hashtbl.t option;
      (* the untraced pass's outputs, when this is the traced pass *)
  simulated : (string, unit) Hashtbl.t;  (* (design, verilog) pairs checked *)
  verdicts : (string, A.Selection.Scorer.verdict option list) Hashtbl.t;
}

let new_acc ?reference () =
  { latencies = []; attempted = 0; failed = 0; errors = []; areas = [];
    resiliences = []; ctr = T.counters (); outputs = Hashtbl.create 64;
    reference; simulated = Hashtbl.create 64; verdicts = Hashtbl.create 16 }

let fail (a : acc) (msg : string) =
  a.failed <- a.failed + 1;
  if List.length a.errors < 20 then a.errors <- msg :: a.errors

(* The untraced pass's account with the traced pass's failures. *)
let merge (a : acc) (t : acc) =
  { a with failed = a.failed + t.failed; errors = a.errors @ List.rev t.errors }

(* Record request [idx]'s output; in the traced pass it must equal the
   untraced pass's. *)
let record_output (a : acc) (idx : int) (output : string) =
  let d = Digest.to_hex (Digest.string output) in
  Hashtbl.replace a.outputs idx d;
  match a.reference with
  | Some r when Hashtbl.find_opt r idx <> Some d ->
    fail a (Printf.sprintf "request %d: traced output differs from the untraced run" idx)
  | Some _ | None -> ()

(* A mean independent of the order the values arrived in. *)
let mean_sorted = function
  | [] -> nan
  | xs -> Array.fold_left ( +. ) 0.0 (Stats.sorted xs) /. float_of_int (List.length xs)

(* Simulate a programmed view once per distinct (design, text). *)
let simulate_once (a : acc) ~seed (r : Oracle.reference) (verilog : string) =
  let key = r.Oracle.name ^ ":" ^ Digest.string verilog in
  if not (Hashtbl.mem a.simulated key) then begin
    Hashtbl.add a.simulated key ();
    match Oracle.simulate ~seed r verilog with
    | Ok () -> ()
    | Error e -> fail a e
  end

let reference_of refs (d : I.design) = Hashtbl.find refs d.I.bench.Alice_benchmarks.Suite.name

(* Check one redaction: its bitstreams, then its behaviour. *)
let check_redaction (a : acc) ~seed refs (d : I.design) (best : A.Selection.solution)
    (red : A.Redact.redacted) =
  match Oracle.check_bitstreams best red with
  | Error e -> fail a (I.label d ^ ": " ^ e)
  | Ok () -> simulate_once a ~seed (reference_of refs d) red.A.Redact.verilog

let verdicts_of (efpgas : A.Selection.efpga_impl list) =
  List.filter_map (fun (e : A.Selection.efpga_impl) -> e.A.Selection.verdict) efpgas

(* Check one flow result: the oracle on its redaction, identical attack
   verdicts for every repeat of [key], and the work counters. *)
let after_flow (a : acc) ~seed ~refs ~(design : I.design) ~(key : string) ~idx ~dt
    (flow : A.Flow.t) (red : A.Redact.redacted option) (solver_calls : int) =
  a.latencies <- (key, dt) :: a.latencies;
  let c = a.ctr and sel = flow.A.Flow.selection in
  c.T.requests <- c.T.requests + 1;
  c.T.computed <- c.T.computed + flow.A.Flow.char_stats.A.Characterize.computed;
  c.T.solutions <- c.T.solutions + A.Selection.solution_count sel;
  c.T.solver_calls <- c.T.solver_calls + solver_calls;
  T.count_verdicts c (verdicts_of sel.A.Selection.valid);
  let vector = List.map (fun (e : A.Selection.efpga_impl) -> e.A.Selection.verdict) sel.A.Selection.valid in
  (match Hashtbl.find_opt a.verdicts key with
  | None -> Hashtbl.add a.verdicts key vector
  | Some v when v = vector -> ()
  | Some _ -> fail a (key ^ ": attack verdicts differ between repeats"));
  Option.iter (fun x -> a.areas <- x :: a.areas) (T.solution_area flow);
  match (sel.A.Selection.best, red) with
  | None, None -> record_output a idx "no solution"
  | Some best, Some red ->
    record_output a idx red.A.Redact.verilog;
    (match verdicts_of best.A.Selection.efpgas with
    | [] -> ()
    | vs ->
      let cfg = flow.A.Flow.config in
      a.resiliences <-
        (List.fold_left (fun s v -> s +. A.Selection.Scorer.resilience cfg v) 0.0 vs
        /. float_of_int (List.length vs))
        :: a.resiliences);
    check_redaction a ~seed refs design best red
  | _ -> fail a (I.label design ^ ": redaction disagrees with the selection")

let references (designs : I.design list) : (string, Oracle.reference) Hashtbl.t =
  let t = Hashtbl.create 8 in
  List.iter
    (fun (d : I.design) ->
      let b = d.I.bench in
      if not (Hashtbl.mem t b.Alice_benchmarks.Suite.name) then
        Hashtbl.add t b.Alice_benchmarks.Suite.name (Oracle.reference b))
    designs;
  t

(* Every latency replaced by the median latency of its request kind:
   the kind's typical latency, as often as the deck asks for it. What
   one slow moment does to one request then does not move a
   percentile that falls between two kinds. *)
let kind_latencies (ls : (string * float) list) : float list =
  let by = Hashtbl.create 64 in
  List.iter
    (fun (k, x) -> Hashtbl.replace by k (x :: Option.value (Hashtbl.find_opt by k) ~default:[]))
    ls;
  let median = Hashtbl.create 64 in
  Hashtbl.iter (fun k xs -> Hashtbl.replace median k (Stats.median xs)) by;
  List.map (fun (k, _) -> Hashtbl.find median k) ls

(* The end-to-end metrics. Time metrics (with [extra_times], raw
   milliseconds) are stated at reference speed and repeated raw under
   "raw."; [other] metrics are reported as given. *)
let end_to_end (s : setup) (a : acc) (w : window) ~completed ~rss ?(extra_times = [])
    ?(other = []) () =
  let times =
    let ls = kind_latencies a.latencies in
    [ ("latency_p50_ms", 1000.0 *. Stats.percentile ls 0.5);
      ("latency_p90_ms", 1000.0 *. Stats.percentile ls 0.9);
      ("cpu_per_req_ms", 1000.0 *. w.cpu /. float_of_int (max 1 w.requests)) ]
    @ extra_times
  in
  let rps = float_of_int completed /. w.wall in
  [ ("setup_s", s.setup_norm); ("requests_per_s", rps *. w.slowness) ]
  @ List.map (fun (k, v) -> (k, v /. w.slowness)) times
  @ [ ("peak_rss_mb", rss); ("qor_area_um2", mean_sorted a.areas) ]
  @ other
  @ [ ("failed_frac", float_of_int a.failed /. float_of_int (max 1 a.attempted));
      ("raw.setup_s", s.setup_raw); ("raw.requests_per_s", rps) ]
  @ List.map (fun (k, v) -> ("raw." ^ k, v)) times
  @ [ ("machine.slowness", w.slowness) ]

(* The deterministic work counters, per request. *)
let counter_values (c : T.counters) =
  let per x = float_of_int x /. float_of_int (max 1 c.T.requests) in
  [ ("characterize.computed", per c.T.computed);
    ("selection.solutions", per c.T.solutions);
    ("attack.dips", per c.T.dips);
    ("attack.conflicts", per c.T.conflicts);
    ("sat.solver_calls", per c.T.solver_calls) ]

(* Every per-layer metric: from the traced pass's counters and spans,
   per request and at reference speed, unless [overrides] gives a
   value. *)
let layer_values (c : T.counters) (w : window) (overrides : (string * float) list) =
  let n = float_of_int (max 1 c.T.requests) in
  let per x = float_of_int x /. n in
  let ms span = 1000.0 *. Span.self_time span /. n /. w.slowness in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let measured =
    [ ("characterize.ms", ms "characterize");
      ("characterize.unique", per c.T.unique);
      ("characterize.computed", per c.T.computed);
      ("characterize.cache_hits", per c.T.hits);
      ("characterize.hit_ratio", ratio c.T.hits c.T.unique);
      ("netlist.synth_lutmap_ms", ms "netlist");
      ("netlist.luts", per c.T.luts);
      ("fabric.size_search_ms", ms "fabric");
      ("fabric.widths_tried", per c.T.widths_tried);
      ("fabric.infeasible", per c.T.infeasible);
      ("attack.ms", ms "attack");
      ("attack.run", per c.T.attack_run);
      ("attack.cached", per c.T.attack_cached);
      ("attack.inconclusive", per c.T.attack_inconclusive);
      ("attack.useful_ratio", ratio (c.T.attack_run - c.T.attack_inconclusive) c.T.attack_run);
      ("attack.dips", per c.T.dips);
      ("attack.conflicts", per c.T.conflicts);
      ("attack.learnt_reused", per c.T.learnt_reused);
      ("sat.solver_calls", per c.T.solver_calls);
      ("verilog.parse_ms", ms "verilog.parse");
      ("verilog.elaborate_ms", ms "verilog.elaborate");
      ("filtering.ms", ms "filtering");
      ("filtering.candidates", per c.T.candidates);
      ("clustering.ms", ms "clustering");
      ("clustering.clusters", per c.T.clusters);
      ("selection.ms", ms "selection");
      ("selection.valid", per c.T.valid);
      ("selection.solutions", per c.T.solutions);
      ("redact.ms", ms "redact");
      ("redact.verilog_bytes", per c.T.verilog_bytes) ]
  in
  List.map
    (fun (d : Metrics.def) ->
      let pick l = List.assoc_opt d.Metrics.name l in
      ( d.Metrics.name,
        match (pick overrides, pick measured) with
        | Some v, _ | None, Some v -> v
        | None, None -> 0.0 ))
    Metrics.layers

(* Traced minus untraced request wall, per request, at reference speed. *)
let overhead_ms ~(untraced : window) ~(traced : window) =
  1000.0
  *. ((traced.wall /. traced.slowness) -. (untraced.wall /. untraced.slowness))
  /. float_of_int (max 1 untraced.requests)

let result (o : opts) ~name ~(a : acc) ~(w : window) ~metrics ~counters ~layers :
    Metrics.result =
  { Metrics.workload = name; seed = o.seed; seconds = o.seconds;
    scale = I.scale_name o.scale;
    traced = o.trace_dir <> None;
    correct = a.failed = 0; attempted = a.attempted; failed = a.failed; decks = w.decks;
    metrics; counters; layers; errors = List.rev a.errors }

(* Spans on for [f]; the trace is written to DIR/<name>.trace.json. *)
let traced (o : opts) ~name (f : unit -> 'a) : 'a =
  Span.enable ();
  Fun.protect
    ~finally:(fun () ->
      Span.disable ();
      Option.iter
        (fun dir ->
          Proc.mkdir_p dir;
          Span.write_chrome (Filename.concat dir (name ^ ".trace.json")))
        o.trace_dir)
    f

(* ---------- redact_cold and attack_measured ---------- *)

(* A workload of single flow requests: [run state ctr req] serves one
   request through the library ([ctr] = None) or through the traced
   decomposition (counting into [Some ctr]). *)
let flow_workload (o : opts) ~name ~deck_s ~(deck : int -> 'req list) ~(design : 'req -> I.design)
    ~(key : 'req -> string) ~(setup : unit -> 'state)
    ~(run : 'state -> T.counters option -> 'req -> A.Flow.t * A.Redact.redacted option) =
  let designs = List.map design (deck 0) in
  let setup, (refs, state) = timed_setup o (fun () -> (references designs, setup ())) in
  let pass a ctr ~decks =
    closed_loop ~meter:(Speed.meter ()) ~decks ~deck
      ~exec:(fun req ->
        let calls = Alice_sat.Solver.total_calls () in
        let flow, red = run state ctr req in
        (flow, red, Alice_sat.Solver.total_calls () - calls))
      ~after:(fun idx req dt out ->
        a.attempted <- a.attempted + 1;
        match out with
        | Error e -> fail a (I.label (design req) ^ ": " ^ e)
        | Ok (flow, red, calls) ->
          after_flow a ~seed:o.seed ~refs ~design:(design req) ~key:(key req) ~idx ~dt
            flow red calls)
  in
  let a = new_acc () in
  let w = pass a None ~decks:(I.decks ~seconds:o.seconds ~deck_s) in
  let metrics =
    end_to_end setup a w ~completed:(List.length a.latencies)
      ~rss:(Proc.peak_rss_mb (Unix.getpid ()))
      ~other:
        (match a.resiliences with [] -> [] | rs -> [ ("qor_resilience", mean_sorted rs) ])
      ()
  in
  match o.trace_dir with
  | None -> result o ~name ~a ~w ~metrics ~counters:(counter_values a.ctr) ~layers:[]
  | Some _ ->
    let t = new_acc ~reference:a.outputs () in
    Hashtbl.iter (Hashtbl.replace t.verdicts) a.verdicts;
    let ctr = T.counters () in
    let tw = traced o ~name (fun () -> pass t (Some ctr) ~decks:w.decks) in
    result o ~name ~a:(merge a t) ~w ~metrics ~counters:(counter_values a.ctr)
      ~layers:(layer_values ctr tw [ ("trace.overhead_ms", overhead_ms ~untraced:w ~traced:tw) ])

let redact_cold (o : opts) =
  flow_workload o ~name:"redact_cold" ~deck_s:I.redact_deck_s ~deck:(I.redact_deck ~scale:o.scale ~seed:o.seed)
    ~design:(fun (r : I.redact_req) -> r.I.r_design)
    ~key:(fun r -> Printf.sprintf "%s%+g" (I.label r.I.r_design) r.I.r_jitter)
    ~setup:(fun () ->
      (* one untimed cold request warms the process's code paths *)
      let d = I.design "SHA256" ~cfg2:false in
      ignore (A.Flow.redact (A.Flow.run_request (A.Flow.request ~config:(I.config d) (text d)))))
    ~run:(fun () ctr r ->
      (* a fresh ephemeral cache per request: the user's first run *)
      let cfg = I.redact_config r in
      match ctr with
      | None ->
        let flow = A.Flow.run_request (A.Flow.request ~config:cfg (text r.I.r_design)) in
        (flow, A.Flow.redact ~view:A.Redact.Programmed flow)
      | Some ctr ->
        let flow = T.run ctr ~store:(Hashtbl.create 64) cfg (source r.I.r_design) in
        (flow, T.redact ctr flow))

let attack_measured (o : opts) =
  flow_workload o ~name:"attack_measured" ~deck_s:I.attack_deck_s ~deck:(I.attack_deck ~scale:o.scale ~seed:o.seed)
    ~design:(fun (r : I.attack_req) -> r.I.a_design)
    ~key:(fun r -> Printf.sprintf "%s b%d i%d" (I.label r.I.a_design) r.I.a_budget r.I.a_iterations)
    ~setup:(fun () ->
      (* the characterization cache primed: attacks carry the time *)
      let store : T.store = Hashtbl.create 256 in
      let cache = T.char_cache store in
      List.iter
        (fun d ->
          ignore (A.Flow.run_request ~cache (A.Flow.request ~config:(I.config d) (text d))))
        (I.attack_designs ~scale:o.scale);
      (store, cache))
    ~run:(fun (store, cache) ctr r ->
      (* a fresh verdict cache per request: every attack runs *)
      let attack_cache = A.Selection.Scorer.create_cache () in
      let cfg = I.attack_config r in
      match ctr with
      | None ->
        let flow =
          A.Flow.run_request ~cache ~attack_cache (A.Flow.request ~config:cfg (text r.I.a_design))
        in
        (flow, A.Flow.redact ~view:A.Redact.Programmed flow)
      | Some ctr ->
        let flow = T.run ctr ~store ~attack_cache cfg (source r.I.a_design) in
        (flow, T.redact ctr flow))

(* ---------- advise_grid ---------- *)

type advised = {
  report : A.Advisor.report;
  point_latencies : (string * float) list;  (* point kind, raw seconds *)
  deduped : int;
}

let advise_grid (o : opts) =
  let deck = I.advise_deck ~scale:o.scale ~seed:o.seed in
  let scratch_dir = scratch "advise" in
  let counter = ref 0 in
  (* A point's latency runs from the previous point's callback (or the
     start) to its own; between points the speed kernel is timed, off
     the clock. *)
  let point_clock meter (g : I.grid) =
    let last = ref (now ()) and lats = ref [] in
    let tick name =
      lats := (I.label g.I.g_design ^ " " ^ name, now () -. !last) :: !lats;
      Speed.probe meter;
      last := now ()
    in
    (tick, fun () -> List.rev !lats)
  in
  (* one Advisor.run over a fresh cache store *)
  let advise meter (g : I.grid) =
    let plan = A.Advisor.plan ~base:(I.config g.I.g_design) ~axes:(I.grid_axes g) in
    incr counter;
    let dir = Filename.concat scratch_dir (string_of_int !counter) in
    let engine = A.Engine.create ~cache_dir:dir ~faults:Fi.none () in
    let tick, lats = point_clock meter g in
    let on_point (sp : A.Engine.sweep_point) = tick sp.A.Engine.sp_name in
    let report = A.Advisor.run ~on_point engine ~source:(text g.I.g_design) plan in
    { report; point_latencies = lats (); deduped = plan.A.Advisor.pl_deduped }
  in
  (* the same invocation through the traced decomposition *)
  let advise_traced ctr meter (g : I.grid) =
    let plan =
      Span.with_ "advisor.plan" (fun () ->
          A.Advisor.plan ~base:(I.config g.I.g_design) ~axes:(I.grid_axes g))
    in
    let store : T.store = Hashtbl.create 256 in
    let tick, lats = point_clock meter g in
    let points =
      List.map
        (fun (pname, cfg) ->
          let sp = T.sweep_point pname (T.run ctr ~store cfg (source g.I.g_design)) in
          tick pname;
          sp)
        plan.A.Advisor.pl_grid
    in
    let report = Span.with_ "advisor.rank" (fun () -> A.Advisor.rank plan points) in
    { report; point_latencies = lats (); deduped = plan.A.Advisor.pl_deduped }
  in
  let designs = List.map (fun (g : I.grid) -> g.I.g_design) (deck 0) in
  let setup, refs =
    timed_setup o (fun () ->
        let refs = references designs in
        (* one untimed grid warms the process's code paths *)
        let g = List.hd (I.advise_deck ~scale:I.Smoke ~seed:o.seed 0) in
        ignore (advise (Speed.meter ()) g);
        refs)
  in
  let verified = Hashtbl.create 8 in
  (* the recommendation must redact correctly: rerun its configuration
     through the flow and the oracle, once per distinct grid *)
  let verify a (g : I.grid) (r : A.Advisor.report) =
    let key = I.grid_key g in
    if not (Hashtbl.mem verified key) then begin
      Hashtbl.add verified key ();
      match r.A.Advisor.r_front with
      | [] -> fail a (key ^ ": empty Pareto front")
      | top :: _ -> (
        let flow =
          A.Flow.run_request (A.Flow.request ~config:top.A.Advisor.e_config (text g.I.g_design))
        in
        if A.Engine.solution_fabrics flow <> top.A.Advisor.e_point.A.Engine.sp_fabrics then
          fail a (key ^ ": the recommended point does not reproduce");
        match (flow.A.Flow.selection.A.Selection.best, A.Flow.redact flow) with
        | Some best, Some red -> check_redaction a ~seed:o.seed refs g.I.g_design best red
        | _ -> fail a (key ^ ": the recommended point has no redaction"))
    end
  in
  let pass a exec ~decks ~on_grid =
    let meter = Speed.meter () in
    closed_loop ~meter ~decks ~deck ~exec:(exec meter) ~after:(fun idx (g : I.grid) _ out ->
        match out with
        | Error e ->
          a.attempted <- a.attempted + 1;
          fail a (I.label g.I.g_design ^ ": " ^ e)
        | Ok (adv : advised) ->
          let r = adv.report in
          a.attempted <- a.attempted + List.length adv.point_latencies;
          a.latencies <- List.rev_append adv.point_latencies a.latencies;
          on_grid adv;
          List.iter
            (fun (e : A.Advisor.entry) ->
              let sp = e.A.Advisor.e_point in
              Option.iter (fun m -> a.areas <- m.A.Engine.pm_area_um2 :: a.areas) sp.A.Engine.sp_metrics;
              a.ctr.T.requests <- a.ctr.T.requests + 1;
              a.ctr.T.computed <- a.ctr.T.computed + sp.A.Engine.sp_computed)
            r.A.Advisor.r_entries;
          record_output a idx (J.to_string (A.Advisor.json_of_report r));
          verify a g r)
  in
  let a = new_acc () in
  let w =
    Fun.protect ~finally:(fun () -> Proc.rm_rf scratch_dir) (fun () ->
        pass a advise ~decks:(I.decks ~seconds:o.seconds ~deck_s:I.advise_deck_s) ~on_grid:ignore)
  in
  (* the request unit is a grid point *)
  let w = { w with requests = a.attempted } in
  let metrics =
    end_to_end setup a w ~completed:(List.length a.latencies)
      ~rss:(Proc.peak_rss_mb (Unix.getpid ())) ()
  in
  let counters =
    [ ( "characterize.computed",
        float_of_int a.ctr.T.computed /. float_of_int (max 1 a.ctr.T.requests) ) ]
  in
  match o.trace_dir with
  | None -> result o ~name:"advise_grid" ~a ~w ~metrics ~counters ~layers:[]
  | Some _ ->
    let t = new_acc ~reference:a.outputs () in
    let ctr = T.counters () in
    let grids = ref 0 and points = ref 0 and deduped = ref 0 and front = ref 0 in
    let on_grid (adv : advised) =
      incr grids;
      points := !points + List.length adv.report.A.Advisor.r_entries;
      deduped := !deduped + adv.deduped;
      front := !front + List.length adv.report.A.Advisor.r_front
    in
    let tw =
      traced o ~name:"advise_grid" (fun () -> pass t (advise_traced ctr) ~decks:w.decks ~on_grid)
    in
    let tw = { tw with requests = t.attempted } in
    let per_grid x = float_of_int x /. float_of_int (max 1 !grids) in
    result o ~name:"advise_grid" ~a:(merge a t) ~w ~metrics ~counters
      ~layers:
        (layer_values ctr tw
           [ ("advisor.points", per_grid !points);
             ("advisor.deduped", per_grid !deduped);
             ("advisor.front", per_grid !front);
             ( "advisor.rank_ms",
               1000.0 *. Span.self_time "advisor.rank" /. float_of_int (max 1 !grids) /. tw.slowness );
             ("trace.overhead_ms", overhead_ms ~untraced:w ~traced:tw) ])

(* ---------- serve_mixed ---------- *)

type server = { pid : int; socket : string; dir : string }

(* Fork a server child running [Server.run] over a fresh disk cache;
   return once it listens. Must run before any thread starts. *)
let start_server ~(dir : string) ~(socket : string) : server =
  Proc.mkdir_p dir;
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let code =
      try
        let engine = A.Engine.create ~cache_dir:(Filename.concat dir "cache") ~faults:Fi.none () in
        let cfg =
          { (S.Server.default_config ~socket_path:socket) with
            S.Server.max_in_flight = 2; jobs = Some 1; faults = Fi.none }
        in
        S.Server.run ~engine
          ~on_ready:(fun _ ->
            ignore (Unix.write_substring wr "ready\n" 0 6);
            Unix.close wr)
          cfg;
        0
      with _ -> 2
    in
    Unix._exit code
  | pid ->
    Unix.close wr;
    let ready =
      match Unix.select [ rd ] [] [] 60.0 with
      | [ _ ], _, _ ->
        let buf = Bytes.create 6 in
        Unix.read rd buf 0 6 = 6 && Bytes.to_string buf = "ready\n"
      | _ -> false
    in
    Unix.close rd;
    if not ready then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      failwith "the server child did not start"
    end;
    { pid; socket; dir }

let rpc (s : server) line = S.Client.one_shot ~faults:Fi.none ~socket:s.socket line

let stop_server (s : server) =
  (try ignore (rpc s (S.Protocol.shutdown_request ())) with _ -> ());
  let rec wait tries =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when tries > 0 ->
      Unix.sleepf 0.05;
      wait (tries - 1)
    | 0, _ ->
      Unix.kill s.pid Sys.sigkill;
      ignore (Unix.waitpid [] s.pid)
    | _ -> ()
  in
  wait 600;
  Proc.rm_rf s.dir

let redact_line (cfg : C.Flow_config.t) (d : I.design) =
  S.Protocol.redact_request ~config:(I.config_json cfg) ~view:"programmed"
    (S.Protocol.Inline (source d))

(* The server's counters from a [stats] op. *)
let server_stats (s : server) =
  let j = J.parse (rpc s (S.Protocol.stats_request ())) in
  let field j k = Option.value (J.find j k) ~default:J.Null in
  let cache = field j "cache" in
  let disk = field cache "disk" and rejected = field j "rejected" in
  [ ("server.cache_hits", J.get_int ~default:0 cache "hits");
    ("server.cache_computed", J.get_int ~default:0 cache "computed");
    ("engine.disk_hits", J.get_int ~default:0 disk "hits");
    ("engine.disk_misses", J.get_int ~default:0 disk "misses");
    ("engine.disk_stores", J.get_int ~default:0 disk "stores");
    ("server.rejected_busy", J.get_int ~default:0 rejected "busy") ]

let op_key = function
  | I.Ping -> "ping"
  | I.Hot d -> I.label d
  | I.Novel (d, n) -> Printf.sprintf "%s novel %d" (I.label d) n

(* One served op: its round trip and the raw response (parsed after the
   timed window, so the clients do nothing but wait on the server). *)
type served = { op : I.op; rtt : float; response : (string, string) result }

(* Two client threads, one connection per op: the first walks the
   decks in order, sending each heavy request and waiting for it, and
   hands each ping to the second, which sends it while the heavy
   requests go on. One heavy request is in flight at a time, so a hot
   request's latency is its own service, not a wait behind a cold one.
   Before each heavy request the first thread times the speed kernel;
   that time is taken off the window's wall and CPU. *)
let drive (s : server) ~(deck : int -> I.op list) ~(decks : int) ~(traced : bool) =
  let mu = Mutex.create () and handed = Condition.create () in
  let pings = Queue.create () and finished = ref false and rows = ref [] in
  let m = Speed.meter () and probing = ref 0.0 in
  let send idx op =
    let line =
      match (I.op_config op, I.op_design op) with
      | Some cfg, Some d -> redact_line cfg d
      | _ -> S.Protocol.ping_request ()
    in
    let start = now () in
    let response = try Ok (rpc s line) with e -> Error (Printexc.to_string e) in
    let stop = now () in
    if traced then Span.leaf "server.rpc" ~request:idx ~start ~stop;
    Mutex.protect mu (fun () -> rows := (idx, { op; rtt = stop -. start; response }) :: !rows)
  in
  let heavy_client () =
    List.iteri
      (fun idx op ->
        match op with
        | I.Ping ->
          Mutex.protect mu (fun () ->
              Queue.push idx pings;
              Condition.signal handed)
        | I.Hot _ | I.Novel _ ->
          let p0 = now () in
          Speed.probe m;
          probing := !probing +. (now () -. p0);
          send idx op)
      (List.concat (List.init decks deck));
    Mutex.protect mu (fun () ->
        finished := true;
        Condition.signal handed)
  in
  let rec ping_client () =
    Mutex.lock mu;
    while Queue.is_empty pings && not !finished do
      Condition.wait handed mu
    done;
    let next = Queue.take_opt pings in
    Mutex.unlock mu;
    Option.iter
      (fun idx ->
        send idx I.Ping;
        ping_client ())
      next
  in
  let t0 = now () and cpu0 = Proc.self_cpu_s () and scpu0 = Proc.cpu_s s.pid in
  let threads = [ Thread.create heavy_client (); Thread.create ping_client () ] in
  List.iter Thread.join threads;
  let wall = now () -. t0 -. !probing in
  let cpu = Proc.self_cpu_s () -. cpu0 +. (Proc.cpu_s s.pid -. scpu0) -. !probing in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) !rows in
  ({ decks; wall; cpu; requests = List.length rows; slowness = Speed.slowness m }, rows)

let serve_mixed (o : opts) =
  let deck = I.serve_deck ~scale:o.scale ~seed:o.seed in
  let hot = I.hot_designs ~scale:o.scale in
  let base = scratch "serve" in
  let counter = ref 0 in
  (* a fresh server with the hot set warmed *)
  let fresh_server () =
    incr counter;
    let dir = Printf.sprintf "%s-%d" base !counter in
    let s = start_server ~dir ~socket:(Filename.concat dir "s.sock") in
    List.iter
      (fun d ->
        let resp = J.parse (rpc s (redact_line (I.config d) d)) in
        if not (J.get_bool ~default:false resp "ok") then begin
          stop_server s;
          failwith ("warming " ^ I.label d ^ " failed")
        end)
      hot;
    s
  in
  let setup, (refs, server) =
    timed_setup o ~discard:(fun (_, s) -> stop_server s) (fun () ->
        let s = fresh_server () in
        (references hot, s))
  in
  (* the traced pass's own server, forked before any thread starts *)
  let trace_server = Option.map (fun _ -> fresh_server ()) o.trace_dir in
  let pass (s : server) ~traced ~decks =
    Fun.protect ~finally:(fun () -> stop_server s) (fun () ->
        let before = server_stats s in
        let w, rows = drive s ~deck ~decks ~traced in
        let after = server_stats s in
        ( w, rows,
          List.map2 (fun (k, x) (_, y) -> (k, y - x)) before after,
          Proc.peak_rss_mb s.pid ))
  in
  (* record every op of a pass into [acc]; keep the answered heavy ones *)
  let heavy_responses (acc : acc) rows =
    List.filter_map
      (fun (idx, r) ->
        acc.attempted <- acc.attempted + 1;
        let parsed =
          match r.response with
          | Error e -> Error e
          | Ok line -> (
            match J.parse line with
            | j when J.get_bool ~default:false j "ok" -> Ok j
            | _ -> Error line
            | exception e -> Error (Printexc.to_string e))
        in
        match (parsed, I.op_config r.op) with
        | Error e, _ ->
          fail acc (op_key r.op ^ ": " ^ e);
          None
        | Ok _, None -> None
        | Ok j, Some cfg ->
          let verilog = J.get_string ~default:"" j "verilog" in
          record_output acc idx verilog;
          Some (r, cfg, j, verilog))
      rows
  in
  let a = new_acc () in
  let w, rows, _, rss = pass server ~traced:false ~decks:(I.decks ~seconds:o.seconds ~deck_s:I.serve_deck_s) in
  let heavy = heavy_responses a rows in
  let pings =
    List.filter_map
      (fun (_, r) -> match (r.op, r.response) with I.Ping, Ok _ -> Some r.rtt | _ -> None)
      rows
  in
  (* per design: the ops that asked for it, the bytes served (every op
     of a design, hot or novel, must get the same bytes: a novel
     utilization moves no clamped CLB budget, so no fabric changes), and
     the configurations to replay — the hot one and the first novel *)
  let by_design = Hashtbl.create 8 in
  List.iter
    (fun (r, cfg, _, verilog) ->
      let d = Option.get (I.op_design r.op) in
      match Hashtbl.find_opt by_design (I.label d) with
      | None -> Hashtbl.add by_design (I.label d) (d, verilog, ref [ cfg ], ref 1)
      | Some (_, v, cfgs, count) ->
        incr count;
        if v <> verilog then fail a (op_key r.op ^ ": served bytes differ from the design's others");
        if List.length !cfgs < 2 && not (List.mem cfg !cfgs) then cfgs := !cfgs @ [ cfg ])
    heavy;
  let designs =
    Hashtbl.fold (fun k v l -> (k, v) :: l) by_design []
    |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)
    |> List.map snd
  in
  (* replay those configurations in process: the served Verilog must be
     byte-identical to the flow's, and correct by the oracle; returns
     each design's flow and op count *)
  let replay (acc : acc) ctr =
    let store : T.store = Hashtbl.create 256 in
    let cache = T.char_cache store in
    List.mapi
      (fun i (d, verilog, cfgs, count) ->
        (* replays' spans carry negative request ids *)
        Span.request := -(i + 1);
        let flows =
          List.map
            (fun cfg ->
              let flow, red =
                match ctr with
                | None ->
                  let flow = A.Flow.run_request ~cache (A.Flow.request ~config:cfg (text d)) in
                  (flow, A.Flow.redact ~view:A.Redact.Programmed flow)
                | Some ctr ->
                  let flow = T.run ctr ~store cfg (source d) in
                  (flow, T.redact ctr flow)
              in
              (match (flow.A.Flow.selection.A.Selection.best, red) with
              | Some best, Some red ->
                if red.A.Redact.verilog <> verilog then
                  fail acc (I.label d ^ ": served Verilog differs from the in-process flow");
                check_redaction acc ~seed:o.seed refs d best red
              | _ -> fail acc (I.label d ^ ": no in-process redaction"));
              flow)
            !cfgs
        in
        (List.hd flows, !count))
      designs
  in
  let replayed = replay a None in
  List.iter
    (fun (flow, count) ->
      Option.iter
        (fun x -> a.areas <- List.init count (fun _ -> x) @ a.areas)
        (T.solution_area flow))
    replayed;
  a.latencies <-
    List.map
      (fun (r, _, _, _) ->
        ( (match r.op with I.Novel (d, _) -> "novel " ^ I.label d | _ -> op_key r.op),
          r.rtt ))
      heavy;
  let metrics =
    end_to_end setup a w ~completed:(List.length rows - a.failed) ~rss
      ~extra_times:[ ("ping_p90_ms", 1000.0 *. Stats.percentile pings 0.9) ]
      ()
  in
  let per_heavy n x = float_of_int x /. float_of_int (max 1 n) in
  let n_heavy = List.length heavy in
  let counters =
    [ ( "characterize.computed",
        per_heavy n_heavy
          (List.fold_left
             (fun s (_, _, j, _) ->
               s + J.get_int ~default:0 (Option.value (J.find j "char_stats") ~default:J.Null) "computed")
             0 heavy) );
      ( "selection.solutions",
        per_heavy n_heavy
          (List.fold_left
             (fun s (flow, count) -> s + (count * A.Selection.solution_count flow.A.Flow.selection))
             0 replayed) ) ]
  in
  match trace_server with
  | None -> result o ~name:"serve_mixed" ~a ~w ~metrics ~counters ~layers:[]
  | Some ts ->
    let t = new_acc ~reference:a.outputs () in
    let ctr = T.counters () in
    let tw, tdelta, theavy =
      traced o ~name:"serve_mixed" (fun () ->
          let tw, trows, tdelta, _ = pass ts ~traced:true ~decks:w.decks in
          let theavy = heavy_responses t trows in
          ignore (replay t (Some ctr));
          (tw, tdelta, theavy))
    in
    let n = List.length theavy in
    let rtt_ms = 1000.0 *. Stats.mean (List.map (fun (r, _, _, _) -> r.rtt) theavy) /. tw.slowness in
    let phases_ms =
      1000.0
      *. Stats.mean
           (List.map
              (fun (_, _, j, _) ->
                let times = Option.value (J.find j "times") ~default:J.Null in
                List.fold_left
                  (fun s k -> s +. J.get_float ~default:0.0 times k)
                  0.0
                  [ "filtering_s"; "clustering_s"; "selection_s" ])
              theavy)
      /. tw.slowness
    in
    result o ~name:"serve_mixed" ~a:(merge a t) ~w ~metrics ~counters
      ~layers:
        (layer_values ctr tw
           ([ ("server.rtt_ms", rtt_ms);
              ("server.phases_ms", phases_ms);
              ("server.overhead_ms", rtt_ms -. phases_ms);
              ("trace.overhead_ms", overhead_ms ~untraced:w ~traced:tw) ]
           @ List.map
               (fun (k, v) ->
                 (k, if k = "server.rejected_busy" then float_of_int v else per_heavy n v))
               tdelta))

let all =
  [ ("redact_cold", redact_cold); ("attack_measured", attack_measured);
    ("advise_grid", advise_grid); ("serve_mixed", serve_mixed) ]
