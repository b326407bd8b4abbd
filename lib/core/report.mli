(** Result-table formatting in the shape of the paper's Tables 1 and 2. *)

module V = Alice_verilog

type table2_row = {
  design_name : string;
  instances : int;
  filtering_time : float;
  r_count : int;
  clustering_time : float option;  (** [None] when the flow stopped *)
  c_count : int option;
  selection_time : float option;
  valid_efpgas : int option;
  s_count : int option;
  efpga_sizes : string list;
  redacted_modules : int option;
}

val row_of_flow : design_name:string -> Flow.t -> table2_row

val pp_table2_header : Format.formatter -> unit -> unit

val pp_table2_row : Format.formatter -> table2_row -> unit

(** Die area of a flow's selected solution in the NanGate-45nm model of
    {!Alice_fabric.Area} (the measure of the paper's Figure 4): the
    selected fabrics, and the rest of the chip as the opaque redacted
    design (fabric stubs empty) synthesized and counted in gate
    equivalents. *)
type solution_area = {
  sa_fabrics : Alice_fabric.Fabric.t list;  (** in selection order *)
  sa_fabric_um2 : float;
  sa_asic_um2 : float;
}

(** [None] when the flow selected no solution. *)
val solution_area : Flow.t -> solution_area option

(** Per-candidate attack verdict line (measured selection only). *)
type verdict_row = {
  vr_cluster : string;  (** cluster canonical identity *)
  vr_fabric : string;   (** fabric size label *)
  vr_status : string;
  vr_dips : int;
  vr_conflicts : int;
  vr_reused : int;
      (** learnt clauses reused across the attack session's queries *)
}

(** Verdict rows of a flow in selection candidate order; empty under
    heuristic scoring. *)
val verdict_rows : Flow.t -> verdict_row list

val pp_verdict_header : Format.formatter -> unit -> unit

val pp_verdict_row : Format.formatter -> verdict_row -> unit

(** One advisor candidate line (see [Advisor.table_rows]): rank on the
    Pareto front ("-" when dominated or infeasible), the grid point's
    identity, and its objective vector. *)
type advise_row = {
  ar_rank : string;
  ar_name : string;
  ar_fabrics : string;  (** "-" when infeasible *)
  ar_area_um2 : float option;
  ar_timing_ns : float option;
  ar_security : float option;
  ar_security_mode : string;  (** which scale [ar_security] is on *)
  ar_note : string;  (** "" | "dominated by <name>" | "infeasible" *)
}

val pp_advise_header : Format.formatter -> unit -> unit

val pp_advise_row : Format.formatter -> advise_row -> unit

type table1_row = {
  t1_design : string;
  t1_modules : int;
  t1_instances : int;
  t1_io_min : int;
  t1_io_max : int;
}

val table1_row : design_name:string -> V.Elaborate.design -> table1_row

val pp_table1_header : Format.formatter -> unit -> unit

val pp_table1_row : Format.formatter -> table1_row -> unit
