(** Circuit metrics the timing and area models read, before or after
    LUT mapping. *)

let logic_depth (c : Circuit.t) : int =
  let order = Simulate.levelize c in
  let level = Hashtbl.create 256 in
  let net_level n = Option.value (Hashtbl.find_opt level n) ~default:0 in
  Array.fold_left
    (fun acc (g : Circuit.gate) ->
      let cost =
        match g.Circuit.kind with
        | Circuit.Buf | Circuit.Const _ -> 0
        | Circuit.Not | Circuit.And | Circuit.Or | Circuit.Xor | Circuit.Xnor
        | Circuit.Nand | Circuit.Nor | Circuit.Mux | Circuit.Lut _ -> 1
      in
      let l =
        cost + Array.fold_left (fun m input -> max m (net_level input)) 0 g.inputs
      in
      Hashtbl.replace level g.Circuit.output l;
      max acc l)
    0 order

(** Logic gates excluding buffers and constants: the gate-equivalent
    count used by the area model for the non-redacted ASIC portion. *)
let logic_gate_count (c : Circuit.t) : int =
  List.fold_left
    (fun acc (g : Circuit.gate) ->
      match g.Circuit.kind with
      | Circuit.Buf | Circuit.Const _ -> acc
      | Circuit.Not | Circuit.And | Circuit.Or | Circuit.Xor | Circuit.Xnor
      | Circuit.Nand | Circuit.Nor | Circuit.Mux | Circuit.Lut _ -> acc + 1)
    0 (Circuit.gates_in_order c)
