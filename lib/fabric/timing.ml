(** Static timing estimate for a placed, LUT-mapped circuit.

    Unit-delay-style model with placement awareness: every LUT costs a
    fixed logic delay and every net a routing delay proportional to its
    half-perimeter wirelength on the placed grid. The critical path is
    the longest register-to-register / input-to-output path under those
    arc delays — the fabric-vs-ASIC delay overhead the paper alludes to
    ("time overheads are in line with previous studies"). *)

module Circuit = Alice_netlist.Circuit
module Simulate = Alice_netlist.Simulate

(* NanGate-45-flavoured constants, in nanoseconds *)
let lut_delay_ns = 0.25          (* 4-LUT through a CLB *)
let wire_delay_per_tile_ns = 0.08
let asic_gate_delay_ns = 0.035   (* average NAND2-class stage *)

type report = {
  critical_path_ns : float;
  logic_levels : int;
}

(** Estimate the critical path of a placed fabric. *)
let estimate (p : Place.placement) (mapped : Circuit.t) : report =
  let boxes = Place.net_boxes p in
  let hpwl net =
    match Hashtbl.find_opt boxes net with
    | Some b -> float_of_int (Place.net_hpwl b)
    | None -> 0.0
  in
  let net_delay net = wire_delay_per_tile_ns *. hpwl net in
  let arrival : (Circuit.net, float) Hashtbl.t = Hashtbl.create 256 in
  let level : (Circuit.net, int) Hashtbl.t = Hashtbl.create 256 in
  let at net = Option.value (Hashtbl.find_opt arrival net) ~default:0.0 in
  let lv net = Option.value (Hashtbl.find_opt level net) ~default:0 in
  let worst = ref 0.0 and worst_levels = ref 0 in
  Array.iter
    (fun (g : Circuit.gate) ->
      let input_arrival =
        Array.fold_left
          (fun acc n -> Float.max acc (at n +. net_delay n))
          0.0 g.Circuit.inputs
      in
      let out_arrival = input_arrival +. lut_delay_ns in
      let out_level =
        1 + Array.fold_left (fun acc n -> max acc (lv n)) 0 g.Circuit.inputs
      in
      Hashtbl.replace arrival g.Circuit.output out_arrival;
      Hashtbl.replace level g.Circuit.output out_level;
      if out_arrival > !worst then begin
        worst := out_arrival;
        worst_levels := out_level
      end)
    (Simulate.levelize mapped);
  (* sinks add their final wire hop *)
  let sink net =
    let a = at net +. net_delay net in
    if a > !worst then worst := a
  in
  List.iter (fun (_, nets) -> Array.iter sink nets) mapped.Circuit.outputs;
  List.iter (fun (d : Circuit.dff) -> sink d.d) mapped.Circuit.dffs;
  { critical_path_ns = !worst; logic_levels = !worst_levels }

(** ASIC reference delay for the same function: gate depth times an
    average standard-cell stage delay. *)
let asic_reference_ns (original : Circuit.t) : float =
  float_of_int (Alice_netlist.Stats.logic_depth original) *. asic_gate_delay_ns
