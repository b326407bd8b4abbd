(** Result-table formatting: renders flow results in the shape of the
    paper's Table 1 and Table 2. *)

module V = Alice_verilog
module F = Alice_fabric
module N = Alice_netlist

type table2_row = {
  design_name : string;
  instances : int;
  filtering_time : float;
  r_count : int;
  clustering_time : float option;   (* None when the flow stopped (R empty) *)
  c_count : int option;
  selection_time : float option;
  valid_efpgas : int option;
  s_count : int option;
  efpga_sizes : string list;
  redacted_modules : int option;
}

let row_of_flow ~(design_name : string) (flow : Flow.t) : table2_row =
  let r = Filtering.candidate_count flow.Flow.filtering in
  let stopped = r = 0 in
  let best = flow.Flow.selection.Selection.best in
  { design_name;
    instances = V.Design.instance_count flow.Flow.design;
    filtering_time = flow.Flow.times.Flow.filtering_s;
    r_count = r;
    clustering_time = (if stopped then None else Some flow.Flow.times.Flow.clustering_s);
    c_count = (if stopped then None else Some (List.length flow.Flow.clusters));
    selection_time = (if stopped then None else Some flow.Flow.times.Flow.selection_s);
    valid_efpgas = (if stopped then None else Some (Flow.valid_efpga_count flow));
    s_count =
      (if stopped then None
       else Some (Selection.solution_count flow.Flow.selection));
    efpga_sizes =
      (match best with
      | None -> []
      | Some s ->
        List.map
          (fun (e : Selection.efpga_impl) ->
            F.Fabric.size_label e.impl.F.Size_search.fabric)
          s.Selection.efpgas);
    redacted_modules =
      (match best with
      | None -> None
      | Some s -> Some s.Selection.redacted_instances) }

type solution_area = {
  sa_fabrics : F.Fabric.t list;
  sa_fabric_um2 : float;
  sa_asic_um2 : float;
}

let solution_area (flow : Flow.t) : solution_area option =
  match flow.Flow.selection.Selection.best with
  | None -> None
  | Some best ->
    let fabrics =
      List.map
        (fun (e : Selection.efpga_impl) -> e.impl.F.Size_search.fabric)
        best.Selection.efpgas
    in
    (* the remaining ASIC logic: the opaque view's fabric stubs are
       empty, so synthesizing it counts everything else *)
    let opaque =
      Redact.run ~view:Redact.Opaque flow.Flow.design flow.Flow.ast best
    in
    let asic_gates =
      N.Stats.logic_gate_count
        (N.Synth.synthesize
           (V.Elaborate.elaborate ~top:flow.Flow.design.V.Elaborate.d_top
              (V.Parser.parse opaque.Redact.verilog)))
    in
    Some
      { sa_fabrics = fabrics;
        sa_fabric_um2 =
          List.fold_left (fun acc f -> acc +. F.Area.fabric_area f) 0.0 fabrics;
        sa_asic_um2 = F.Area.asic_area ~gates:asic_gates }

let opt_str f = function None -> "-" | Some v -> f v

let pp_time fmt t =
  if t < 0.01 then Format.fprintf fmt "<0.01s" else Format.fprintf fmt "%.2fs" t

let pp_table2_header fmt () =
  Format.fprintf fmt "%-8s %5s | %9s %4s | %9s %5s | %9s %7s %7s %-12s %9s@."
    "Design" "#Inst" "Filt.time" "|R|" "Clu.time" "|C|" "Sel.time" "#valid"
    "|S|" "eFPGA size" "#redacted"

let pp_table2_row fmt (r : table2_row) =
  Format.fprintf fmt "%-8s %5d | %9s %4d | %9s %5s | %9s %7s %7s %-12s %9s@."
    r.design_name r.instances
    (Format.asprintf "%a" pp_time r.filtering_time)
    r.r_count
    (opt_str (Format.asprintf "%a" pp_time) r.clustering_time)
    (opt_str string_of_int r.c_count)
    (opt_str (Format.asprintf "%a" pp_time) r.selection_time)
    (opt_str string_of_int r.valid_efpgas)
    (opt_str string_of_int r.s_count)
    (match r.efpga_sizes with [] -> "-" | ss -> String.concat ", " ss)
    (opt_str string_of_int r.redacted_modules)

(** Per-candidate attack verdict line (measured selection only): what
    the budgeted oracle-guided attack concluded about each valid
    fabric implementation. *)
type verdict_row = {
  vr_cluster : string;   (* cluster canonical identity *)
  vr_fabric : string;    (* fabric size label *)
  vr_status : string;
  vr_dips : int;
  vr_conflicts : int;
  vr_reused : int;       (* learnt clauses reused across the attack's
                            session queries *)
}

(** Verdict rows of a flow, in the selection's candidate order. Empty
    under heuristic scoring (no verdicts are computed). *)
let verdict_rows (flow : Flow.t) : verdict_row list =
  List.filter_map
    (fun (e : Selection.efpga_impl) ->
      match e.Selection.verdict with
      | None -> None
      | Some v ->
        Some
          { vr_cluster = e.Selection.cluster.Clustering.key;
            vr_fabric = F.Fabric.size_label e.Selection.impl.F.Size_search.fabric;
            vr_status =
              Alice_security.Sat_attack.status_to_string
                v.Selection.Scorer.v_status;
            vr_dips = v.Selection.Scorer.v_iterations;
            vr_conflicts = v.Selection.Scorer.v_conflicts;
            vr_reused = v.Selection.Scorer.v_reused })
    flow.Flow.selection.Selection.valid

let pp_verdict_header fmt () =
  Format.fprintf fmt "%-24s %-10s %-12s %6s %10s %8s@." "Cluster" "Fabric"
    "Verdict" "DIPs" "Conflicts" "Reused"

let pp_verdict_row fmt (r : verdict_row) =
  Format.fprintf fmt "%-24s %-10s %-12s %6d %10d %8d@." r.vr_cluster
    r.vr_fabric r.vr_status r.vr_dips r.vr_conflicts r.vr_reused

(** One advisor candidate line: rank on the Pareto front ("-" when
    dominated or infeasible), the grid point's identity, and its
    objective vector. *)
type advise_row = {
  ar_rank : string;         (* "1".. on the front, "-" otherwise *)
  ar_name : string;
  ar_fabrics : string;      (* "-" when infeasible *)
  ar_area_um2 : float option;
  ar_timing_ns : float option;
  ar_security : float option;
  ar_security_mode : string;
  ar_note : string;         (* "" | "dominated by X" | "infeasible" *)
}

let pp_advise_header fmt () =
  Format.fprintf fmt "%-4s %-18s %-12s %12s %9s %9s %-9s %s@." "Rank" "Candidate"
    "Fabrics" "Area[um2]" "Path[ns]" "Security" "Scale" "Note"

let pp_advise_row fmt (r : advise_row) =
  let opt_f digits = function
    | None -> "-"
    | Some v -> Printf.sprintf "%.*f" digits v
  in
  Format.fprintf fmt "%-4s %-18s %-12s %12s %9s %9s %-9s %s@." r.ar_rank
    r.ar_name r.ar_fabrics
    (opt_f 0 r.ar_area_um2)
    (opt_f 2 r.ar_timing_ns)
    (opt_f 3 r.ar_security)
    r.ar_security_mode r.ar_note

type table1_row = {
  t1_design : string;
  t1_modules : int;
  t1_instances : int;
  t1_io_min : int;
  t1_io_max : int;
}

let table1_row ~(design_name : string) (d : V.Elaborate.design) : table1_row =
  let t1_io_min, t1_io_max = V.Design.io_pin_range d in
  { t1_design = design_name; t1_modules = V.Design.module_count d;
    t1_instances = V.Design.instance_count d; t1_io_min; t1_io_max }

let pp_table1_header fmt () =
  Format.fprintf fmt "%-8s %8s %10s %14s@." "Design" "Modules" "Instances"
    "I/O [min,max]"

let pp_table1_row fmt (r : table1_row) =
  Format.fprintf fmt "%-8s %8d %10d %14s@." r.t1_design r.t1_modules
    r.t1_instances
    (Printf.sprintf "[%d, %d]" r.t1_io_min r.t1_io_max)
