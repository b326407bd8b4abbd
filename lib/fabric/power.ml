(** Activity-based dynamic power estimate.

    Random vectors drive the circuit through the simulator; every net's
    toggle rate, weighted by its fanout (a proxy for switched
    capacitance) and, on a placed fabric, by its wirelength, accumulates
    into a relative dynamic-power figure. Absolute calibration is not
    attempted — the quantity of interest is the fabric-vs-ASIC overhead
    factor the paper alludes to. *)

module Circuit = Alice_netlist.Circuit
module Simulate = Alice_netlist.Simulate

type report = {
  toggles_per_cycle : float;      (* mean net toggles per vector *)
  weighted_activity : float;      (* fanout/wirelength weighted *)
  vectors : int;
}

let fanout_table (c : Circuit.t) : (Circuit.net, int) Hashtbl.t =
  let t = Hashtbl.create 256 in
  let bump n = Hashtbl.replace t n (1 + Option.value (Hashtbl.find_opt t n) ~default:0) in
  List.iter
    (fun (g : Circuit.gate) -> Array.iter bump g.Circuit.inputs)
    (Circuit.gates_in_order c);
  List.iter (fun (d : Circuit.dff) -> bump d.d) c.Circuit.dffs;
  List.iter (fun (_, nets) -> Array.iter bump nets) c.Circuit.outputs;
  t

(** Estimate switching activity over [vectors] random input vectors.
    [wirelength_of] supplies the per-net routed length (tile units) for
    placed circuits; default charges 1.0 per net. *)
let estimate ?(vectors = 256) ?(seed = 0x9e3779)
    ?(wirelength_of : (Circuit.net -> float) option) (c : Circuit.t) : report =
  let sim = Simulate.create c in
  let fanout = fanout_table c in
  let wl =
    match wirelength_of with
    | Some f -> f
    | None -> fun _ -> 1.0
  in
  let st = Random.State.make [| seed |] in
  let previous = Array.make c.Circuit.next_net false in
  let toggles = ref 0.0 and weighted = ref 0.0 in
  for v = 1 to vectors do
    List.iter
      (fun (name, nets) ->
        Simulate.set_input_bits sim name
          (Array.init (Array.length nets) (fun _ -> Random.State.bool st)))
      c.Circuit.inputs;
    Simulate.step sim;
    Simulate.eval sim;
    if v > 1 then
      for n = 0 to c.Circuit.next_net - 1 do
        if sim.Simulate.values.(n) <> previous.(n) then begin
          toggles := !toggles +. 1.0;
          let f = float_of_int (Option.value (Hashtbl.find_opt fanout n) ~default:0) in
          weighted := !weighted +. ((1.0 +. f) *. wl n)
        end
      done;
    Array.blit sim.Simulate.values 0 previous 0 c.Circuit.next_net
  done;
  let cycles = float_of_int (max 1 (vectors - 1)) in
  { toggles_per_cycle = !toggles /. cycles;
    weighted_activity = !weighted /. cycles;
    vectors }

(** Wirelength accessor derived from a placement, for fabric circuits. *)
let placed_wirelength (p : Place.placement) : Circuit.net -> float =
  let boxes = Place.net_boxes p in
  fun net ->
    match Hashtbl.find_opt boxes net with
    | Some b -> 1.0 +. float_of_int (Place.net_hpwl b)
    | None -> 1.0
