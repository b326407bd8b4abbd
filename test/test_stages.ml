(* Staged characterization: the netlist, mapped, packed and placed stages
   a cache shares across configurations must never change a result. A
   seeded differential test runs random configuration walks through one
   cache and compares every characterization, byte for byte, with a
   fresh run; the stage counters are pinned on the GCD advise grid; a
   global pool fault still lands on the cluster it always did; and
   every configuration field rekeys exactly the stages that read it. *)

module A = Alice
module B = Alice_benchmarks.Suite
module C = Alice_config

(* ---------- staged equals fresh ---------- *)

(* The variants share one cache, final entries included: a cluster's
   identity is its members in cluster order, each a module and its
   subtree digest, so equal keys synthesize one netlist wherever the
   cluster sits. The renamed and edited GCDs are the cases a key must
   get right: the same modules under another instance name, which share
   every entry, and the same names over another body, which share none
   of the edited subtree's. *)
let variants =
  let gcd = B.gcd.B.source in
  (* [s] with the first occurrence of [sub] replaced by [by] *)
  let replace ~sub ~by s =
    let n = String.length sub in
    let rec find i = if String.sub s i n = sub then i else find (i + 1) in
    let i = find 0 in
    String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
  in
  [ ("GCD", B.gcd, gcd);
    ("GCD renamed", B.gcd, replace ~sub:"out_reg u_out" ~by:"out_reg u_res" gcd);
    ("GCD edited", B.gcd, replace ~sub:"if (en) begin q <= d;"
        ~by:"if (en) begin q <= ~d;" gcd);
    ("SASC", B.sasc, B.sasc.B.source) ]

type point = {
  variant : int;
  lut_inputs : int;
  luts_per_clb : int;
  ffs_per_clb : int;
  gpio_per_tile : int;
  min_size : int;
  max_size : int;
  utilization : float;
}

let print_point p =
  let name, _, _ = List.nth variants p.variant in
  Printf.sprintf "%s k=%d luts=%d ffs=%d gpio=%d w=[%d,%d] u=%g" name
    p.lut_inputs p.luts_per_clb p.ffs_per_clb p.gpio_per_tile p.min_size
    p.max_size p.utilization

(* A walk through the configuration space, as a sweep or an advise grid
   moves: a random start, then one field changed per step, so that
   consecutive points share most stages. Each point draws its design
   variant afresh, since the netlist stage is shared across all
   configurations. *)
let gen_walk : point list QCheck.Gen.t =
  let open QCheck.Gen in
  let variant = int_bound (List.length variants - 1) in
  let lut = oneofl [ 4; 6 ] and luts = oneofl [ 4; 8 ] in
  let ffs = oneofl [ 2; 4 ] and gpio = oneofl [ 6; 8 ] in
  let min_size = oneofl [ 2; 4; 6 ] and max_size = oneofl [ 8; 12; 16 ] in
  let util = oneofl [ 0.45; 0.5; 0.6 ] in
  let start =
    map
      (fun (variant, (lut_inputs, luts_per_clb, ffs_per_clb, gpio_per_tile),
            (min_size, max_size, utilization)) ->
        { variant; lut_inputs; luts_per_clb; ffs_per_clb; gpio_per_tile;
          min_size; max_size; utilization })
      (triple variant (quad lut luts ffs gpio)
         (triple min_size max_size util))
  in
  let change p =
    int_bound 7 >>= function
    | 0 -> return p
    | 1 -> map (fun lut_inputs -> { p with lut_inputs }) lut
    | 2 -> map (fun luts_per_clb -> { p with luts_per_clb }) luts
    | 3 -> map (fun ffs_per_clb -> { p with ffs_per_clb }) ffs
    | 4 -> map (fun gpio_per_tile -> { p with gpio_per_tile }) gpio
    | 5 -> map (fun min_size -> { p with min_size }) min_size
    | 6 -> map (fun max_size -> { p with max_size }) max_size
    | _ -> map (fun utilization -> { p with utilization }) util
  in
  let step p = map2 (fun variant p -> { p with variant }) variant (change p) in
  let rec walk n p =
    if n = 0 then return [ p ]
    else step p >>= fun q -> map (List.cons p) (walk (n - 1) q)
  in
  int_range 2 6 >>= fun n -> start >>= walk (n - 1)

let request (p : point) : A.Flow.request =
  let name, bench, text = List.nth variants p.variant in
  let config =
    { (B.config1 bench) with
      C.Flow_config.lut_inputs = p.lut_inputs;
      luts_per_clb = p.luts_per_clb; ffs_per_clb = p.ffs_per_clb;
      gpio_per_tile = p.gpio_per_tile; min_fabric_size = p.min_size;
      max_fabric_size = p.max_size;
      target_utilization = p.utilization }
  in
  A.Flow.request ~config (A.Flow.Text { text; file = Some (name ^ ".v") })

(* what a cache entry would hold: each characterization's marshalled
   bytes, sharing included *)
let entry_bytes (flow : A.Flow.t) : (string * string) list =
  List.map
    (fun (c : A.Characterize.characterization) ->
      ( String.concat "+"
          (List.map
             (fun (m : Alice_verilog.Design.tree) -> m.inst_name)
             c.A.Characterize.cluster.A.Clustering.members),
        Marshal.to_string c [] ))
    flow.A.Flow.characterized

let staged_equals_fresh =
  QCheck.Test.make ~count:12 ~name:"staged characterization equals fresh"
    (QCheck.make ~print:(QCheck.Print.list print_point) gen_walk)
    (fun walk ->
      let cache = A.Characterize.create_cache () in
      List.iteri
        (fun i p ->
          let staged = entry_bytes (A.Flow.run_request ~cache (request p)) in
          let fresh = entry_bytes (A.Flow.run_request (request p)) in
          if List.length staged <> List.length fresh then
            QCheck.Test.fail_reportf "point %d (%s): %d vs %d clusters" i
              (print_point p) (List.length staged) (List.length fresh);
          List.iter2
            (fun (label, s) (_, f) ->
              if not (String.equal s f) then
                QCheck.Test.fail_reportf
                  "point %d (%s): cluster %s differs from a fresh run" i
                  (print_point p) label)
            staged fresh)
        walk;
      true)

(* ---------- stage counters on the GCD advise grid ---------- *)

(* check.sh's grid: k {4, 6} x max width {12, 16} x utilization
   {0.45, 0.5}. GCD has 27 unique clusters a point, 9 of one member and
   18 of two or three, over 9 modules: synthesis runs once per module,
   mapping and packing once per cluster and k, and the second
   utilization re-places only where it moves the first feasible width.
   A one-member cluster looks up its netlist and mapped entries at every
   point; a larger one looks up its mapped entry, and on its two misses
   (one per k) its members' pieces, 41 members in all. No axis is a
   front-end field, so the front end runs once for the eight points. *)
let test_grid_counters () =
  let base =
    { (B.config1 B.gcd) with
      C.Flow_config.min_fabric_size = 4; max_fabric_size = 16 }
  in
  let axes =
    { A.Advisor.ax_lut_inputs = [ 4; 6 ]; ax_max_widths = [ 12; 16 ];
      ax_utilizations = [ 0.45; 0.5 ];
      ax_attack_budgets = [ base.C.Flow_config.attack_budget ];
      ax_score_modes = [ C.Flow_config.Heuristic ] }
  in
  let plan = A.Advisor.plan ~base ~axes in
  let engine = A.Engine.create ~cache:false () in
  let report =
    A.Advisor.run engine
      ~source:(A.Flow.Text { text = B.gcd.B.source; file = Some "gcd.v" })
      plan
  in
  let computed =
    List.fold_left
      (fun acc (e : A.Advisor.entry) ->
        acc + e.A.Advisor.e_point.A.Engine.sp_computed)
      0 report.A.Advisor.r_entries
  in
  Alcotest.(check int) "eight points, 27 characterizations each" 216 computed;
  Alcotest.(check (list (triple string int int)))
    "stage (computed, hits)"
    [ ("netlist", 9, 145); ("mapped", 54, 244); ("packed", 54, 162);
      ("placed", 66, 150); ("front", 1, 7) ]
    (List.map
       (fun (s : A.Characterize.stage_stats) ->
         (s.A.Characterize.stage, s.A.Characterize.stage_computed,
          s.A.Characterize.stage_hits))
       (A.Engine.stage_stats engine))

(* ---------- the front stage ---------- *)

(* the front stage's (computed, hits) among a cache's stage counters *)
let front_of (stats : A.Characterize.stage_stats list) : int * int =
  List.find_map
    (fun (s : A.Characterize.stage_stats) ->
      if s.A.Characterize.stage = "front" then
        Some (s.A.Characterize.stage_computed, s.A.Characterize.stage_hits)
      else None)
    stats
  |> Option.get

let front_counts (cache : A.Characterize.cache) : int * int =
  front_of (A.Characterize.stage_stats cache)

let counts = Alcotest.(pair int int)

(* four leaves under one top, one with a syntax error: the parser
   recovers and reports an E0102, the rest runs *)
let broken_src =
  {|module f1 (input [7:0] a, output [7:0] y); assign y = a + 8'h1; endmodule
    module f2 (input [7:0] a, output [7:0] y); assign y = a ^ 8'h55; endmodule
    module f3 (input [7:0] a, output [7:0] y); assign y = {a[0], a[7:1]}; endmodule
    module junk (input a, output y); assign y = ; endmodule
    module top (input [7:0] x, output [7:0] out1, output [7:0] out2, output out3);
      wire [7:0] t;
      f1 u1 (.a(x), .y(t));
      f2 u2 (.a(t), .y(out1));
      f3 u3 (.a(x), .y(out2));
      junk u4 (.a(x[0]), .y(out3));
    endmodule|}

let broken_cfg =
  { C.Flow_config.default with
    C.Flow_config.max_io_pins = 40; selected_outputs = [ "out1"; "out2" ];
    min_fabric_size = 2; max_fabric_size = 12; jobs = 1 }

let text ?(file = "design.v") text = A.Flow.Text { text; file = Some file }

let codes (diags : Alice_diag.Diag.t list) =
  List.map (fun (d : Alice_diag.Diag.t) -> d.Alice_diag.Diag.code) diags

(* A front-stage hit changes nothing but the clock: after a first run
   at another LUT size (same front end, every characterization
   different), a second run through the cache equals a cacheless cold
   run on every field but [times] — whose filtering and clustering
   columns a hit leaves at 0 — and redacts to the same bytes. *)
let test_front_warm_equals_cold () =
  List.iter
    (fun (name, source, (config : C.Flow_config.t)) ->
      let config = { config with C.Flow_config.jobs = 1 } in
      let cache = A.Characterize.create_cache () in
      ignore
        (A.Flow.run_request ~cache
           (A.Flow.request
              ~config:{ config with C.Flow_config.lut_inputs = 6 }
              source));
      let warm = A.Flow.run_request ~cache (A.Flow.request ~config source) in
      let cold = A.Flow.run_request (A.Flow.request ~config source) in
      Alcotest.check counts (name ^ ": one front end, one hit") (1, 1)
        (front_counts cache);
      let same field f =
        Alcotest.(check bool) (name ^ ": " ^ field) true
          (String.equal (Marshal.to_string (f warm) [])
             (Marshal.to_string (f cold) []))
      in
      same "config" (fun (f : A.Flow.t) -> Obj.repr f.A.Flow.config);
      same "ast" (fun f -> Obj.repr f.A.Flow.ast);
      same "design" (fun f -> Obj.repr f.A.Flow.design);
      same "filtering" (fun f -> Obj.repr f.A.Flow.filtering);
      same "clusters" (fun f -> Obj.repr f.A.Flow.clusters);
      same "characterized" (fun f -> Obj.repr f.A.Flow.characterized);
      same "selection" (fun f -> Obj.repr f.A.Flow.selection);
      same "diags" (fun f -> Obj.repr f.A.Flow.diags);
      same "char_stats" (fun f -> Obj.repr f.A.Flow.char_stats);
      Alcotest.(check (pair (float 0.0) (float 0.0)))
        (name ^ ": a hit runs neither filtering nor clustering") (0.0, 0.0)
        (warm.A.Flow.times.A.Flow.filtering_s,
         warm.A.Flow.times.A.Flow.clustering_s);
      let verilog flow =
        Option.map
          (fun (r : A.Redact.redacted) -> r.A.Redact.verilog)
          (A.Flow.redact flow)
      in
      Alcotest.(check (option string)) (name ^ ": redacted bytes")
        (verilog cold) (verilog warm))
    [ ("GCD", text B.gcd.B.source, B.config1 B.gcd);
      ("GCD ast", A.Flow.Ast (B.parse B.gcd), B.config2 B.gcd);
      ("SASC", text B.sasc.B.source, B.config1 B.sasc);
      ("broken", text broken_src, broken_cfg) ]

(* the recovered syntax error is reported by every run, hit or not *)
let test_front_replays_syntax_errors () =
  let cache = A.Characterize.create_cache () in
  let run () =
    let diags = Alice_diag.Diag.Collector.create () in
    let flow =
      A.Flow.run_request ~cache
        (A.Flow.request ~config:broken_cfg ~diags (text broken_src))
    in
    (codes (Alice_diag.Diag.Collector.list diags), codes flow.A.Flow.diags)
  in
  let first = run () in
  let second = run () in
  Alcotest.check counts "computed once, then hit" (1, 1) (front_counts cache);
  Alcotest.(check (pair (list string) (list string))) "cold run" ([ "E0102" ], [ "E0102" ])
    first;
  Alcotest.(check (pair (list string) (list string))) "hit replays" first second

(* A source that cannot be elaborated reports its syntax errors and
   raises, run after run; nothing is stored. So does a selected output
   the top module lacks, before any characterization. *)
let test_front_failures_not_stored () =
  let unresolved =
    {|module junk (input a, output y); assign y = ; endmodule
      module top (input a, output y); missing u (.a(a), .y(y)); endmodule|}
  in
  let cache = A.Characterize.create_cache () in
  for _ = 1 to 2 do
    let diags = Alice_diag.Diag.Collector.create () in
    (match
       A.Flow.run_request ~cache
         (A.Flow.request ~config:broken_cfg ~diags (text unresolved))
     with
    | exception Alice_verilog.Loc.Error _ -> ()
    | _ -> Alcotest.fail "an unresolved module elaborated");
    Alcotest.(check (list string)) "syntax errors reported" [ "E0102" ]
      (codes (Alice_diag.Diag.Collector.list diags));
    let config =
      { broken_cfg with C.Flow_config.selected_outputs = [ "out1"; "nope" ] }
    in
    match
      A.Flow.run_request ~cache (A.Flow.request ~config (text broken_src))
    with
    | exception Invalid_argument msg ->
      Alcotest.(check string) "names the output"
        "selected_outputs: nope is not an output of top" msg;
      Alcotest.(check bool) "an E0602" true
        (match A.Flow.classify_exn (Invalid_argument msg) with
         | Some d -> d.Alice_diag.Diag.code = "E0602"
         | None -> false)
    | _ -> Alcotest.fail "a missing selected output ran"
  done;
  Alcotest.check counts "nothing stored" (0, 0) (front_counts cache);
  Alcotest.(check (list (triple string int int)))
    "no characterization ran"
    [ ("netlist", 0, 0); ("mapped", 0, 0); ("packed", 0, 0); ("placed", 0, 0) ]
    (List.filter_map
       (fun (s : A.Characterize.stage_stats) ->
         if s.A.Characterize.stage = "front" then None
         else
           Some
             (s.A.Characterize.stage, s.A.Characterize.stage_computed,
              s.A.Characterize.stage_hits))
       (A.Characterize.stage_stats cache))

(* The key holds the source and the five fields the front end reads:
   changing any of them misses; fields only characterization or
   selection read hit. *)
let test_front_key () =
  let cache = A.Characterize.create_cache () in
  let run ?(source = text broken_src) config =
    ignore (A.Flow.run_request ~cache (A.Flow.request ~config source))
  in
  run broken_cfg;
  let expect label (computed, hits) f =
    let c0, h0 = front_counts cache in
    f ();
    Alcotest.check counts label (c0 + computed, h0 + hits) (front_counts cache)
  in
  let b = broken_cfg in
  expect "same request hits" (0, 1) (fun () -> run b);
  List.iter
    (fun (label, config) -> expect (label ^ " misses") (1, 0) (fun () -> run config))
    [ ("top", { b with C.Flow_config.top = Some "top" });
      ("max_io_pins", { b with C.Flow_config.max_io_pins = 41 });
      ("selected_outputs", { b with C.Flow_config.selected_outputs = [ "out1" ] });
      ("min_score", { b with C.Flow_config.min_score = 2 });
      ("transitive_independence",
       { b with C.Flow_config.transitive_independence = true }) ];
  expect "text misses" (1, 0) (fun () -> run ~source:(text (broken_src ^ "\n")) b);
  expect "file name misses" (1, 0) (fun () ->
      run ~source:(text ~file:"other.v" broken_src) b);
  let ast = A.Flow.Ast (Alice_verilog.Parser.parse B.gcd.B.source) in
  let gcd = B.config1 B.gcd in
  expect "an AST misses" (1, 0) (fun () -> run ~source:ast gcd);
  expect "the same AST hits" (0, 1) (fun () -> run ~source:ast gcd);
  List.iter
    (fun (label, config) -> expect (label ^ " hits") (0, 1) (fun () -> run config))
    [ ("lut_inputs", { b with C.Flow_config.lut_inputs = 6 });
      ("max_fabric_size", { b with C.Flow_config.max_fabric_size = 10 });
      ("target_utilization", { b with C.Flow_config.target_utilization = 0.6 });
      ("max_efpgas", { b with C.Flow_config.max_efpgas = 1 }) ]

(* ---------- a global pool fault lands where it always did ---------- *)

(* The process-wide fault plan is read once from the environment, so
   this case runs the CLI. Stage lookups add no pool task: the 60th
   task is still the cluster u_out at the grid's third point, as before
   characterization was staged. *)
let test_pool_fault_position () =
  let dir = Filename.temp_file "alice_stages" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path name = Filename.concat dir name in
  let write name s =
    Out_channel.with_open_bin (path name) (fun oc -> output_string oc s)
  in
  write "gcd.v" B.gcd.B.source;
  write "grid.yaml"
    "base:\n  top: gcd\n  selected_outputs:\n    - result\n\
    \  max_io_pins: 64\n  max_efpgas: 2\n  fabric:\n    min_size: 4\n\
    \    max_size: 16\n    target_utilization: 0.5\n\
    \    min_clb_utilization: 0.3\naxes:\n  lut_inputs: [4, 6]\n\
    \  max_fabric_size: [12, 16]\n  target_utilization: [0.5, 0.45]\n";
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name)
      "../bin/alice_cli.exe"
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let err =
    Unix.openfile (path "stderr.txt")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let env =
    Array.append [| "ALICE_FAULT_PLAN=pool.task=fail@60" |]
      (Array.of_list
         (List.filter
            (fun kv ->
              not (String.starts_with ~prefix:"ALICE_FAULT_PLAN=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let pid =
    Unix.create_process_env exe
      [| exe; "advise"; path "gcd.v"; "-c"; path "grid.yaml"; "--format";
         "json"; "--no-cache" |]
      env Unix.stdin devnull err
  in
  let _, status = Unix.waitpid [] pid in
  Unix.close devnull;
  Unix.close err;
  Alcotest.(check bool) "exit 1: one cluster failed" true
    (status = Unix.WEXITED 1);
  let errors =
    In_channel.with_open_bin (path "stderr.txt") In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (String.starts_with ~prefix:"error")
  in
  Alcotest.(check (list string)) "the same cluster fails"
    [ "error[E0900]: unexpected exception: \
       Alice_fault.Fault.Injected(\"pool.task\", 0) \
       {config=k4-w16-u0.45; cluster=u_out}" ]
    errors

(* ---------- one table keys every stage ---------- *)

(* [c] with the field [name] moved to another valid value drawn from
   [rng]. A field without a case here fails the test, so a new field
   needs a perturbation just as it needs a classification. *)
let perturb rng (c : C.Flow_config.t) (name : string) : C.Flow_config.t =
  let int n = n + 1 + Random.State.int rng 3 in
  let float x = x +. 0.1 +. Random.State.float rng 0.3 in
  match name with
  | "max_io_pins" -> { c with max_io_pins = int c.max_io_pins }
  | "max_efpgas" -> { c with max_efpgas = int c.max_efpgas }
  | "alpha" -> { c with alpha = float c.alpha }
  | "beta" -> { c with beta = float c.beta }
  | "lut_inputs" -> { c with lut_inputs = int c.lut_inputs }
  | "luts_per_clb" -> { c with luts_per_clb = 1 + Random.State.int rng 3 }
  | "ffs_per_clb" -> { c with ffs_per_clb = int c.ffs_per_clb }
  | "gpio_per_tile" -> { c with gpio_per_tile = int c.gpio_per_tile }
  | "min_fabric_size" -> { c with min_fabric_size = int c.min_fabric_size }
  | "max_fabric_size" -> { c with max_fabric_size = int c.max_fabric_size }
  | "target_utilization" ->
    { c with target_utilization = float c.target_utilization }
  | "min_clb_utilization" ->
    { c with min_clb_utilization = float c.min_clb_utilization }
  | "selected_outputs" ->
    { c with selected_outputs = [ List.nth c.selected_outputs (Random.State.int rng 2) ] }
  | "top" -> { c with top = Some "top" }
  | "min_score" -> { c with min_score = int c.min_score }
  | "rank_order" -> { c with rank_order = C.Flow_config.Lowest }
  | "score_formula" -> { c with score_formula = C.Flow_config.Penalty }
  | "score_mode" ->
    { c with
      score_mode =
        (match c.score_mode with
         | C.Flow_config.Heuristic -> C.Flow_config.Measured
         | C.Flow_config.Measured -> C.Flow_config.Heuristic) }
  | "attack_budget" -> { c with attack_budget = int c.attack_budget }
  | "attack_iterations" -> { c with attack_iterations = int c.attack_iterations }
  | "attack_jobs" -> { c with attack_jobs = int c.attack_jobs }
  | "attack_area_weight" ->
    { c with attack_area_weight = float c.attack_area_weight }
  | "transitive_independence" -> { c with transitive_independence = true }
  | "characterize_deadline_s" ->
    { c with characterize_deadline_s = Some (float 3600.0) }
  | "jobs" -> { c with jobs = int c.jobs }
  | "cache" -> { c with cache = false }
  | "cache_dir" -> { c with cache_dir = Some "elsewhere" }
  | "cache_max_bytes" -> { c with cache_max_bytes = Some (int (1 lsl 20)) }
  | other -> Alcotest.failf "no perturbation for field %s" other

(* what a run returns, less the cache accounting *)
let outcome (flow : A.Flow.t) : string =
  Marshal.to_string
    ( flow.A.Flow.characterized,
      { flow.A.Flow.selection with
        A.Selection.attack = A.Selection.Scorer.empty_stats },
      Option.map (fun (r : A.Redact.redacted) -> r.A.Redact.verilog)
        (A.Flow.redact flow) )
    [ Marshal.No_sharing ]

let point_outcome (sp : A.Engine.sweep_point) =
  Marshal.to_string
    (sp.A.Engine.sp_feasible, sp.A.Engine.sp_fabrics, sp.A.Engine.sp_metrics)
    [ Marshal.No_sharing ]

(* Each field of the configuration, perturbed in turn from a warm
   engine: a key whose stage reads the field changes and every other
   key stays, the sweep point resumes exactly when no stage of the
   result reads it, and the warm run equals a fresh one. Under both
   score modes, since measured scoring widens what selection reads. *)
let test_field_read_sets () =
  let rng = Random.State.make [| 27 |] in
  let source =
    text
      {|module f1 (input [7:0] a, output [7:0] y); assign y = a + 8'h1; endmodule
        module f2 (input [7:0] a, output [7:0] y); assign y = a ^ 8'h55; endmodule
        module f3 (input [7:0] a, output [7:0] y); assign y = {a[0], a[7:1]}; endmodule
        module top (input [7:0] x, output [7:0] out1, output [7:0] out2);
          wire [7:0] t;
          f1 u1 (.a(x), .y(t));
          f2 u2 (.a(t), .y(out1));
          f3 u3 (.a(x), .y(out2));
        endmodule|}
  in
  let heuristic =
    { C.Flow_config.default with
      C.Flow_config.max_io_pins = 40; selected_outputs = [ "out1"; "out2" ];
      max_fabric_size = 12; attack_budget = 1_000; attack_iterations = 8;
      jobs = 1 }
  in
  List.iter
    (fun (base : C.Flow_config.t) ->
      let mode = C.Flow_config.score_mode_to_string base.score_mode in
      let root = Filename.temp_file "alice_stages" ".cache" in
      Sys.remove root;
      let engine = A.Engine.create ~cache_dir:root () in
      let req config = A.Flow.request ~config source in
      let point config = A.Engine.run_sweep engine [ ("p", req config) ] in
      ignore (point base);
      let fabric, mapped =
        match (A.Flow.run_request (req base)).A.Flow.selection.A.Selection.valid with
        | e :: _ -> (e.A.Selection.impl.Alice_fabric.Size_search.fabric, e.A.Selection.mapped)
        | [] -> Alcotest.fail "no valid candidate"
      in
      let front_computed () = fst (front_of (A.Engine.stage_stats engine)) in
      let keys (c : C.Flow_config.t) =
        let k = A.Characterize.config_keys c in
        [ ("final", C.Flow_config.characterization, k.A.Characterize.cfg_final);
          ("mapped", [ C.Flow_config.Mapped ], k.A.Characterize.cfg_mapped);
          ("packed", [ C.Flow_config.Packed ], k.A.Characterize.cfg_packed);
          ("placed", [ C.Flow_config.Placed ], k.A.Characterize.cfg_placed);
          ("verdict", [ C.Flow_config.Attack ],
           A.Selection.Scorer.verdict_key c ~fabric ~mapped) ]
      in
      List.iter
        (fun (f : C.Flow_config.field) ->
          let label = Printf.sprintf "%s %s" mode f.C.Flow_config.name in
          let reads stages =
            List.exists (fun s -> List.mem s f.C.Flow_config.stages) stages
          in
          let cfg = perturb rng base f.C.Flow_config.name in
          List.iter2
            (fun (key, stages, before) (_, _, after) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s key changes" label key)
                (reads stages) (before <> after))
            (keys base) (keys cfg);
          (* the point runs its front end unless it resumes, which no
             front-end field allows *)
          let fronts = front_computed () in
          match point cfg with
          | [ sp ] ->
            Alcotest.(check bool) (label ^ ": front key changes")
              (reads [ C.Flow_config.Front ]) (front_computed () > fronts);
            Alcotest.(check bool) (label ^ ": point resumed")
              (not (reads C.Flow_config.result)) sp.A.Engine.sp_resumed;
            let fresh = A.Engine.create ~cache:false () in
            Alcotest.(check string) (label ^ ": point equals fresh")
              (point_outcome
                 (List.hd (A.Engine.run_sweep fresh [ ("p", req cfg) ])))
              (point_outcome sp);
            Alcotest.(check string) (label ^ ": warm equals fresh")
              (outcome (A.Flow.run_request (req cfg)))
              (outcome (A.Engine.run engine (req cfg)))
          | _ -> Alcotest.fail "run_sweep arity")
        (C.Flow_config.classify base))
    [ heuristic; { heuristic with C.Flow_config.score_mode = C.Flow_config.Measured } ]

let tests =
  [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 19 |])
      staged_equals_fresh;
    Alcotest.test_case "grid stage counters" `Quick test_grid_counters;
    Alcotest.test_case "front hit equals cold run" `Quick
      test_front_warm_equals_cold;
    Alcotest.test_case "front hit replays syntax errors" `Quick
      test_front_replays_syntax_errors;
    Alcotest.test_case "front failures are not stored" `Quick
      test_front_failures_not_stored;
    Alcotest.test_case "front key fields" `Quick test_front_key;
    Alcotest.test_case "pool fault position" `Quick test_pool_fault_position;
    Alcotest.test_case "field read sets" `Quick test_field_read_sets ]
