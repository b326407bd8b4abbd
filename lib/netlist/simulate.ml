(** Levelized two-valued simulation of a {!Circuit.t}.

    The circuit is topologically sorted once; evaluation then is a single
    linear pass. Sequential stepping evaluates the combinational fabric
    and clocks every DFF simultaneously. Combinational cycles are
    rejected at construction time. *)

exception Combinational_cycle of string

type t = {
  circuit : Circuit.t;
  order : Circuit.gate array;       (* topological order *)
  values : bool array;              (* indexed by net *)
  dffs : Circuit.dff array;
}

(* Depth-first from each gate in creation order, fanins in pin order;
   a gate is emitted once all the gates driving its inputs are. *)
let levelize (c : Circuit.t) : Circuit.gate array =
  let gates = Array.of_list (Circuit.gates_in_order c) in
  let producer = Circuit.driver_index c gates in
  let is_source = Circuit.source_nets c in
  let state = Array.make (Array.length gates) `White in
  let order = Array.copy gates and emitted = ref 0 in
  let rec visit i =
    match state.(i) with
    | `Black -> ()
    | `Grey ->
      raise (Combinational_cycle
               (Printf.sprintf "combinational cycle through net %d (%s)"
                  gates.(i).Circuit.output gates.(i).Circuit.path))
    | `White ->
      state.(i) <- `Grey;
      Array.iter
        (fun input ->
          if (not is_source.(input)) && producer.(input) >= 0 then
            visit producer.(input))
        gates.(i).Circuit.inputs;
      state.(i) <- `Black;
      order.(!emitted) <- gates.(i);
      incr emitted
  in
  Array.iteri (fun i _ -> visit i) gates;
  order

let create (c : Circuit.t) : t =
  { circuit = c; order = levelize c;
    values = Array.make c.Circuit.next_net false;
    dffs = Array.of_list (Circuit.dff_list c) }

(* ---------- value conversions ---------- *)

let bools_of_int width v : bool array =
  Array.init width (fun i -> (v lsr i) land 1 = 1)

let int_of_bools (bits : bool array) : int =
  let v = ref 0 in
  Array.iteri (fun i b -> if b then v := !v lor (1 lsl i)) bits;
  !v

(* ---------- driving and reading ---------- *)

let set_input_bits (sim : t) name (bits : bool array) : unit =
  match Circuit.find_input sim.circuit name with
  | None -> invalid_arg (Printf.sprintf "no input named %s" name)
  | Some nets ->
    if Array.length bits <> Array.length nets then
      invalid_arg (Printf.sprintf "input %s: expected %d bits" name (Array.length nets));
    Array.iteri (fun i n -> sim.values.(n) <- bits.(i)) nets

let set_input (sim : t) name (v : int) : unit =
  match Circuit.find_input sim.circuit name with
  | None -> invalid_arg (Printf.sprintf "no input named %s" name)
  | Some nets -> set_input_bits sim name (bools_of_int (Array.length nets) v)

(** Propagate values through the combinational logic. *)
let eval (sim : t) : unit =
  Array.iter
    (fun (g : Circuit.gate) ->
      let vals = Array.map (fun n -> sim.values.(n)) g.inputs in
      sim.values.(g.output) <- Circuit.eval_gate g.kind vals)
    sim.order

(** One clock cycle: evaluate, then update every DFF from its D input. *)
let step (sim : t) : unit =
  eval sim;
  let next = Array.map (fun (d : Circuit.dff) -> sim.values.(d.d)) sim.dffs in
  Array.iteri (fun i (d : Circuit.dff) -> sim.values.(d.q) <- next.(i)) sim.dffs

(** Clear all state (registers and nets) to 0. *)
let reset (sim : t) : unit = Array.fill sim.values 0 (Array.length sim.values) false

let read_output_bits (sim : t) name : bool array =
  match Circuit.find_output sim.circuit name with
  | None -> invalid_arg (Printf.sprintf "no output named %s" name)
  | Some nets -> Array.map (fun n -> sim.values.(n)) nets

let read_output (sim : t) name : int = int_of_bools (read_output_bits sim name)

let read_net (sim : t) (n : Circuit.net) : bool = sim.values.(n)
