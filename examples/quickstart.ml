(* Quickstart: run the complete ALICE flow on the GCD benchmark and emit
   the redacted design.

     dune exec examples/quickstart.exe

   Walks the three phases of the paper (module filtering, cluster
   identification, eFPGA selection) and prints what each produced, then
   generates the redacted Verilog in both views. *)

module A = Alice
module B = Alice_benchmarks.Suite
module C = Alice_config
module F = Alice_fabric
module N = Alice_netlist
module V = Alice_verilog

let flow_ast ~config ast =
  A.Flow.run_request (A.Flow.request ~config (A.Flow.Ast ast))

let () =
  let gcd = Option.get (B.find "GCD") in
  (* the paper's cfg1: at most 64 I/O pins per eFPGA, up to two eFPGAs *)
  let config = B.config1 gcd in
  Format.printf "=== ALICE quickstart: %s under cfg1 ===@." gcd.B.name;
  Format.printf "flow parameters:@.  %a@.@." C.Flow_config.pp config;

  let flow = flow_ast ~config (B.parse gcd) in

  (* phase 1: module filtering *)
  Format.printf "--- module filtering (%.3fs) ---@." flow.A.Flow.times.A.Flow.filtering_s;
  Format.printf "protected outputs: %s@."
    (String.concat ", " flow.A.Flow.filtering.A.Filtering.outputs_used);
  List.iter
    (fun (c : A.Filtering.candidate) ->
      Format.printf "  candidate %-14s score=%d pins=%d instances=%d@."
        c.module_name c.score c.io_pins (List.length c.instances))
    flow.A.Flow.filtering.A.Filtering.candidates;

  (* phase 2: cluster identification *)
  Format.printf "@.--- cluster identification (%.3fs) ---@."
    flow.A.Flow.times.A.Flow.clustering_s;
  Format.printf "|C| = %d candidate clusters (showing multi-module ones):@."
    (List.length flow.A.Flow.clusters);
  List.iter
    (fun (c : A.Clustering.cluster) ->
      if A.Clustering.member_count c > 1 then
        Format.printf "  {%s} aggregated pins=%d@." c.key c.io_pins)
    flow.A.Flow.clusters;

  (* phase 3: eFPGA selection *)
  Format.printf "@.--- eFPGA selection (%.3fs) ---@." flow.A.Flow.times.A.Flow.selection_s;
  Format.printf "valid eFPGA implementations: %d@." (A.Flow.valid_efpga_count flow);
  Format.printf "admissible solutions |S|: %d@."
    (A.Selection.solution_count flow.A.Flow.selection);
  (match flow.A.Flow.selection.A.Selection.best with
  | None -> Format.printf "no feasible solution@."
  | Some best ->
    Format.printf "best solution: %a@." A.Selection.pp_solution best;
    List.iter
      (fun (e : A.Selection.efpga_impl) ->
        let fabric = e.impl.F.Size_search.fabric in
        Format.printf
          "  eFPGA %s: %d LUTs, %d FFs, %d I/O; CLB util %.0f%%, I/O util \
           %.0f%%, %d cfg bits <- {%s}@."
          (F.Fabric.size_label fabric) (N.Circuit.lut_count e.mapped)
          (N.Circuit.dff_count e.mapped) (N.Circuit.io_bit_count e.mapped)
          (100. *. e.impl.clb_util) (100. *. e.impl.io_util)
          (F.Bitstream.length fabric) e.cluster.A.Clustering.key)
      best.A.Selection.efpgas);

  (* redacted design generation *)
  (match A.Flow.redact ~view:A.Redact.Opaque flow with
  | None -> ()
  | Some r ->
    Format.printf "@.--- redacted design (opaque view, as sent to the foundry) ---@.";
    Format.printf "removed module definitions: %s@."
      (String.concat ", " r.A.Redact.removed_modules);
    List.iter
      (fun (s : A.Redact.efpga_site) ->
        Format.printf "  %s inserted in %s (gpio %d in / %d out)@."
          s.efpga_name s.insertion_point s.gpio_in_width s.gpio_out_width)
      r.A.Redact.sites;
    print_newline ();
    print_string r.A.Redact.verilog)
