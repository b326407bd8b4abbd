(** Pre-architecture advisor (see the interface): enumerate a candidate
    grid over the searchable (arch × config) axes, run it through the
    engine's resumable sweep machinery, classify the solved points with
    {!Pareto}, and rank a recommendation.

    Determinism is load-bearing here: the grid order is a fixed nested
    axis order, candidate names are pure functions of their axis
    values, and the report carries no wall-clock or resume provenance —
    so a warm rerun (or a resumed crashed run) renders byte-identical
    output, which check.sh asserts. *)

module C = Alice_config
module J = C.Json_lite
module D = Alice_diag.Diag
module F = Alice_fabric
module V = Alice_verilog

type axes = {
  ax_lut_inputs : int list;
  ax_max_widths : int list;
  ax_utilizations : float list;
  ax_attack_budgets : int list;
  ax_score_modes : C.Flow_config.score_mode list;
}

type plan = {
  pl_base : C.Flow_config.t;
  pl_axes : axes;
  pl_grid : (string * C.Flow_config.t) list;
  pl_deduped : int;
}

type entry = {
  e_name : string;
  e_config : C.Flow_config.t;
  e_point : Engine.sweep_point;
  e_rank : int option;
  e_dominated_by : string option;
}

type report = {
  r_entries : entry list;
  r_front : entry list;
  r_deduped : int;
}

(* ---------- axes ---------- *)

let default_axes ~(base : C.Flow_config.t) (design : V.Elaborate.design) :
    axes =
  let io_bits =
    (* the widest non-top module bounds the pad ring any single-cluster
       fabric must carry; 1 when there is nothing to protect so the
       axis helpers stay well-defined *)
    List.fold_left
      (fun acc m -> max acc (V.Elaborate.io_pin_count m))
      1
      (V.Design.non_top_modules design)
  in
  let arch = F.Arch.of_config base in
  { ax_lut_inputs =
      List.sort_uniq compare [ base.C.Flow_config.lut_inputs; 4; 6 ];
    ax_max_widths =
      F.Size_search.suggested_max_widths arch
        ~min_size:base.C.Flow_config.min_fabric_size
        ~max_size:base.C.Flow_config.max_fabric_size ~io_bits;
    ax_utilizations = [ base.C.Flow_config.target_utilization ];
    ax_attack_budgets = [ base.C.Flow_config.attack_budget ];
    ax_score_modes = [ base.C.Flow_config.score_mode ] }

let check_axis name = function
  | [] -> invalid_arg (Printf.sprintf "advise: axis %s is empty" name)
  | l -> l

let axes_of_constraints ~(base : C.Flow_config.t)
    (design : V.Elaborate.design) (doc : J.t) : axes =
  let d = default_axes ~base design in
  let ax = J.get_obj doc "axes" in
  let at_least lo name l =
    List.iter
      (fun v ->
        if v < lo then
          invalid_arg (Printf.sprintf "advise: axis %s: %d must be at least %d" name v lo))
      l;
    check_axis name (List.sort_uniq compare l)
  in
  let pos = at_least 1 in
  { ax_lut_inputs =
      at_least 2 "lut_inputs" (J.get_int_list ~default:d.ax_lut_inputs ax "lut_inputs");
    ax_max_widths =
      pos "max_fabric_size"
        (J.get_int_list ~default:d.ax_max_widths ax "max_fabric_size");
    ax_utilizations =
      (let us =
         J.get_float_list ~default:d.ax_utilizations ax "target_utilization"
       in
       List.iter
         (fun u ->
           if not (u > 0. && u <= 1.) then
             invalid_arg
               (Printf.sprintf
                  "advise: axis target_utilization: %g must be in (0, 1]" u))
         us;
       check_axis "target_utilization" (List.sort_uniq compare us));
    ax_attack_budgets =
      pos "attack_budget"
        (J.get_int_list ~default:d.ax_attack_budgets ax "attack_budget");
    ax_score_modes =
      (match J.find ax "score" with
      | None | Some J.Null -> d.ax_score_modes
      | Some _ ->
        check_axis "score"
          (List.sort_uniq compare
             (List.map C.Flow_config.score_mode_of_string
                (J.get_string_list ax "score")))) }

(* ---------- the grid ---------- *)

(* a utilization's name part; [%g] keeps six significant digits *)
let u_label (u : float) : string = Printf.sprintf "u%g" u

let candidate_name ~(axes : axes) ~k ~w ~u ~b ~(m : C.Flow_config.score_mode)
    : string =
  let multi = function _ :: _ :: _ -> true | _ -> false in
  String.concat "-"
    ([ Printf.sprintf "k%d" k; Printf.sprintf "w%d" w ]
    @ (if multi axes.ax_utilizations then [ u_label u ] else [])
    @ (if multi axes.ax_attack_budgets then [ Printf.sprintf "b%d" b ] else [])
    @
    if multi axes.ax_score_modes then [ C.Flow_config.score_mode_to_string m ]
    else [])

let plan ~(base : C.Flow_config.t) ~(axes : axes) : plan =
  ignore (check_axis "lut_inputs" axes.ax_lut_inputs);
  ignore (check_axis "max_fabric_size" axes.ax_max_widths);
  ignore (check_axis "target_utilization" axes.ax_utilizations);
  ignore (check_axis "attack_budget" axes.ax_attack_budgets);
  ignore (check_axis "score" axes.ax_score_modes);
  (* the only axis printed lossily: two distinct utilizations with one
     label would give two candidates one name *)
  let labels = Hashtbl.create 8 in
  List.iter
    (fun u ->
      let label = u_label u in
      match Hashtbl.find_opt labels label with
      | Some u' when u' <> u ->
        invalid_arg
          (Printf.sprintf
             "advise: axis target_utilization: %.17g and %.17g both name \
              candidates %s"
             u' u label)
      | Some _ -> ()
      | None -> Hashtbl.add labels label u)
    axes.ax_utilizations;
  let seen = Hashtbl.create 16 in
  let grid = ref [] and deduped = ref 0 in
  List.iter
    (fun k ->
      List.iter
        (fun w ->
          List.iter
            (fun u ->
              List.iter
                (fun b ->
                  List.iter
                    (fun m ->
                      let cfg =
                        { base with
                          C.Flow_config.lut_inputs = k;
                          max_fabric_size = w;
                          (* a width bound below the base minimum would
                             make the whole point vacuously infeasible *)
                          min_fabric_size =
                            min base.C.Flow_config.min_fabric_size w;
                          target_utilization = u;
                          attack_budget = b;
                          score_mode = m }
                      in
                      (* duplicates: no stage of the result reads
                         what tells them apart *)
                      let key =
                        C.Flow_config.(digest "result" result (classify cfg))
                      in
                      if Hashtbl.mem seen key then incr deduped
                      else begin
                        Hashtbl.add seen key ();
                        grid :=
                          (candidate_name ~axes ~k ~w ~u ~b ~m, cfg) :: !grid
                      end)
                    axes.ax_score_modes)
                axes.ax_attack_budgets)
            axes.ax_utilizations)
        axes.ax_max_widths)
    axes.ax_lut_inputs;
  { pl_base = base; pl_axes = axes; pl_grid = List.rev !grid;
    pl_deduped = !deduped }

let plan_of_source ~(base : C.Flow_config.t) ~(constraints : J.t)
    (source : Flow.source) : plan =
  let ast =
    match source with
    | Flow.Ast d -> d
    | Flow.Text { text; file } -> V.Parser.parse ?file text
  in
  let design = V.Elaborate.elaborate ?top:base.C.Flow_config.top ast in
  let axes = axes_of_constraints ~base design constraints in
  plan ~base ~axes

(* ---------- classification ---------- *)

let directions =
  [| Pareto.Minimize (* area *); Pareto.Minimize (* timing *);
     Pareto.Maximize (* security *) |]

(* Best-first order of the front: most secure, then smallest, then
   fastest, then name — the tie-break chain keeps ranks deterministic. *)
let compare_ranked (a : entry) (b : entry) : int =
  match (a.e_point.Engine.sp_metrics, b.e_point.Engine.sp_metrics) with
  | Some ma, Some mb ->
    let c = Float.compare mb.Engine.pm_security ma.Engine.pm_security in
    if c <> 0 then c
    else
      let c = Float.compare ma.Engine.pm_area_um2 mb.Engine.pm_area_um2 in
      if c <> 0 then c
      else
        let c = Float.compare ma.Engine.pm_timing_ns mb.Engine.pm_timing_ns in
        if c <> 0 then c else compare a.e_name b.e_name
  | _ -> compare a.e_name b.e_name

let rank (plan : plan) (sps : Engine.sweep_point list) : report =
  if List.length sps <> List.length plan.pl_grid then
    invalid_arg
      (Printf.sprintf "advise: %d points for a grid of %d"
         (List.length sps) (List.length plan.pl_grid));
  let solved =
    List.map2 (fun (name, cfg) sp -> (name, cfg, sp)) plan.pl_grid sps
  in
  let points =
    List.filter_map
      (fun (name, _, (sp : Engine.sweep_point)) ->
        match sp.Engine.sp_metrics with
        | None -> None
        | Some m ->
          Some
            { Pareto.label = name;
              objectives =
                [| m.Engine.pm_area_um2; m.Engine.pm_timing_ns;
                   m.Engine.pm_security |];
              payload = () })
      solved
  in
  let cls = Pareto.classify ~directions points in
  let front_labels = List.map (fun p -> p.Pareto.label) cls.Pareto.front in
  let witness name =
    List.find_map
      (fun ((p : unit Pareto.point), w) ->
        if String.equal p.Pareto.label name then Some w else None)
      cls.Pareto.dominated
  in
  let entries =
    List.map
      (fun (name, cfg, sp) ->
        { e_name = name; e_config = cfg; e_point = sp; e_rank = None;
          e_dominated_by = witness name })
      solved
  in
  let ranked_front =
    List.sort compare_ranked
      (List.filter (fun e -> List.mem e.e_name front_labels) entries)
  in
  let rank_of name =
    let rec find i = function
      | [] -> None
      | e :: rest ->
        if String.equal e.e_name name then Some i else find (i + 1) rest
    in
    find 1 ranked_front
  in
  let entries =
    List.map (fun e -> { e with e_rank = rank_of e.e_name }) entries
  in
  let ranked_front =
    List.map (fun e -> { e with e_rank = rank_of e.e_name }) ranked_front
  in
  { r_entries = entries; r_front = ranked_front;
    r_deduped = plan.pl_deduped }

let run ?(resume = true) ?on_point (engine : Engine.t)
    ~(source : Flow.source) (plan : plan) : report =
  let points =
    List.map
      (fun (name, cfg) ->
        (name, Flow.request ~config:cfg ~diags:(D.Collector.create ()) source))
      plan.pl_grid
  in
  rank plan (Engine.run_sweep ~resume ?on_point engine points)

(* ---------- rendering ---------- *)

let json_of_entry (e : entry) : J.t =
  let cfg = e.e_config in
  let sp = e.e_point in
  J.Obj
    [ ("name", J.String e.e_name);
      ("rank", (match e.e_rank with None -> J.Null | Some r -> J.Int r));
      ("feasible", J.Bool sp.Engine.sp_feasible);
      ("lut_inputs", J.Int cfg.C.Flow_config.lut_inputs);
      ("max_fabric_size", J.Int cfg.C.Flow_config.max_fabric_size);
      ("target_utilization", J.Float cfg.C.Flow_config.target_utilization);
      ("attack_budget", J.Int cfg.C.Flow_config.attack_budget);
      ("score", J.String (C.Flow_config.score_mode_to_string cfg.C.Flow_config.score_mode));
      ("fabrics",
       (match sp.Engine.sp_fabrics with
       | None -> J.Null
       | Some f -> J.String f));
      ("metrics", Engine.json_of_metrics sp.Engine.sp_metrics);
      ("dominated_by",
       (match e.e_dominated_by with None -> J.Null | Some w -> J.String w)) ]

let json_of_report (r : report) : J.t =
  J.Obj
    [ ("front", J.List (List.map json_of_entry r.r_front));
      ("candidates", J.List (List.map json_of_entry r.r_entries));
      ("deduped", J.Int r.r_deduped) ]

let table_rows (r : report) : Report.advise_row list =
  let row (e : entry) : Report.advise_row =
    let sp = e.e_point in
    let m = sp.Engine.sp_metrics in
    { Report.ar_rank =
        (match e.e_rank with None -> "-" | Some k -> string_of_int k);
      ar_name = e.e_name;
      ar_fabrics = Option.value sp.Engine.sp_fabrics ~default:"-";
      ar_area_um2 = Option.map (fun m -> m.Engine.pm_area_um2) m;
      ar_timing_ns = Option.map (fun m -> m.Engine.pm_timing_ns) m;
      ar_security = Option.map (fun m -> m.Engine.pm_security) m;
      ar_security_mode =
        (match m with
        | None -> "-"
        | Some m ->
          C.Flow_config.score_mode_to_string m.Engine.pm_security_mode);
      ar_note =
        (match (e.e_rank, e.e_dominated_by, m) with
        | Some _, _, _ -> ""
        | None, Some w, _ -> "dominated by " ^ w
        | None, None, None -> "infeasible"
        | None, None, Some _ -> "unfit") }
  in
  List.map row r.r_front
  @ List.filter_map
      (fun e -> if e.e_rank = None then Some (row e) else None)
      r.r_entries
