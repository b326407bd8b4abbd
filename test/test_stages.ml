(* Staged characterization: the netlist, mapped, packed and placed stages
   a cache shares across configurations must never change a result. A
   seeded differential test runs random configuration walks through one
   cache and compares every characterization, byte for byte, with a
   fresh run; the stage counters are pinned on the GCD advise grid; and
   a global pool fault still lands on the cluster it always did. *)

module A = Alice
module B = Alice_benchmarks.Suite
module C = Alice_config

(* ---------- staged equals fresh ---------- *)

(* Each variant runs at its own [min_clb_utilization]. That field is in
   the final characterization key and in no stage key, so two variants
   never share a final entry — the final key is a member multiset and
   deliberately blind to instance names — while every stage is shared
   wherever its key allows. The renamed and edited GCDs are the cases a
   stage key must tell apart: the same modules under another instance
   name, and the same names over another body. *)
let variants =
  let gcd = B.gcd.B.source in
  (* [s] with the first occurrence of [sub] replaced by [by] *)
  let replace ~sub ~by s =
    let n = String.length sub in
    let rec find i = if String.sub s i n = sub then i else find (i + 1) in
    let i = find 0 in
    String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
  in
  [ ("GCD", B.gcd, gcd, 0.30);
    ("GCD renamed", B.gcd, replace ~sub:"out_reg u_out" ~by:"out_reg u_res" gcd,
     0.31);
    ("GCD edited", B.gcd, replace ~sub:"if (en) begin q <= d;"
        ~by:"if (en) begin q <= ~d;" gcd, 0.32);
    ("SASC", B.sasc, B.sasc.B.source, 0.33) ]

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
  let name, _, _, _ = List.nth variants p.variant in
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
  let name, bench, text, floor = List.nth variants p.variant in
  let config =
    { (B.config1 bench) with
      C.Flow_config.lut_inputs = p.lut_inputs;
      luts_per_clb = p.luts_per_clb; ffs_per_clb = p.ffs_per_clb;
      gpio_per_tile = p.gpio_per_tile; min_fabric_size = p.min_size;
      max_fabric_size = p.max_size; target_utilization = p.utilization;
      min_clb_utilization = floor }
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
   {0.45, 0.5}. GCD has 27 unique clusters a point: synthesis runs once
   each, mapping and packing once per k, and the second utilization
   re-places only where it moves the first feasible width. *)
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
    [ ("netlist", 27, 189); ("mapped", 54, 162); ("packed", 54, 162);
      ("placed", 66, 150) ]
    (List.map
       (fun (s : A.Characterize.stage_stats) ->
         (s.A.Characterize.stage, s.A.Characterize.stage_computed,
          s.A.Characterize.stage_hits))
       (A.Engine.stage_stats engine))

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

let tests =
  [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 19 |])
      staged_equals_fresh;
    Alcotest.test_case "grid stage counters" `Quick test_grid_counters;
    Alcotest.test_case "pool fault position" `Quick test_pool_fault_position ]
