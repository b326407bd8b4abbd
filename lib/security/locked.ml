(** A circuit locked by eFPGA redaction: the LUT-mapped netlist whose
    truth tables are secret. The configuration bitstream restricted to
    LUT content is the key an attacker must recover; routing bits are
    fixed by the netlist structure in this model (attacking them too only
    enlarges the key space, so this is the attacker-favourable case).

    Registers are exposed as scan I/O per the threat model ("fully
    scanned"), in {!Equiv}'s scan view. *)

module Circuit = Alice_netlist.Circuit
module Simulate = Alice_netlist.Simulate
module Cnf = Alice_sat.Cnf
module Equiv = Alice_sat.Equiv
module Tseitin = Alice_sat.Tseitin

type t = {
  circuit : Circuit.t;          (* LUT-mapped netlist *)
  key_bits : int;
  correct_key : bool array;
  offsets : (Circuit.net * int) list;  (* LUT output net -> key offset *)
}

let luts_of (c : Circuit.t) : (Circuit.net * int array * bool array) list =
  List.filter_map
    (fun (g : Circuit.gate) ->
      match g.Circuit.kind with
      | Circuit.Lut table -> Some (g.Circuit.output, g.Circuit.inputs, table)
      | Circuit.Const _ | Circuit.Buf | Circuit.Not | Circuit.And
      | Circuit.Or | Circuit.Xor | Circuit.Xnor | Circuit.Nand | Circuit.Nor
      | Circuit.Mux -> None)
    (Circuit.gates_in_order c)

(** Lock a LUT-mapped circuit. *)
let of_mapped (c : Circuit.t) : t =
  let luts = luts_of c in
  let key_bits =
    List.fold_left (fun acc (_, _, table) -> acc + Array.length table) 0 luts
  in
  let correct_key = Array.make key_bits false in
  let offsets = ref [] and pos = ref 0 in
  List.iter
    (fun (out, _inputs, table) ->
      offsets := (out, !pos) :: !offsets;
      Array.iteri (fun i b -> correct_key.(!pos + i) <- b) table;
      pos := !pos + Array.length table)
    luts;
  { circuit = c; key_bits; correct_key; offsets = List.rev !offsets }

(* the core's inputs and outputs: {!Equiv}'s scan view, flattened *)
let input_nets (l : t) : Circuit.net array =
  Array.concat (List.map snd (Equiv.scan_inputs l.circuit))

let output_nets (l : t) : Circuit.net array =
  Array.concat (List.map snd (Equiv.scan_outputs l.circuit))

(* The nets that loading a copy may fix before the pins after it load.
   The solver loads clauses at level 0, in order and without
   propagating: a clause is skipped when a literal is true, loses its
   false literals and enqueues its last one. A copy's clauses come gate
   by gate in [gates_in_order], on fresh variables, and any key bit may
   be fixed at level 0 already. Every clause of a LUT holds all of the
   LUT's nets, so it can fix one only once all the others are fixed;
   any other gate is taken to fix all its nets once one is (a constant
   at once). One pass over the gates in load order therefore marks
   every net loading can fix. *)
let fixable_at_load (c : Circuit.t) : bool array =
  let fixed = Array.make c.Circuit.next_net false in
  List.iter
    (fun (g : Circuit.gate) ->
      let nets =
        List.sort_uniq compare (g.Circuit.output :: Array.to_list g.Circuit.inputs)
      in
      let free = List.length (List.filter (fun n -> not fixed.(n)) nets) in
      let fixes =
        match g.Circuit.kind with
        | Circuit.Lut _ -> free = 1
        | Circuit.Const _ -> true
        | Circuit.Buf | Circuit.Not | Circuit.And | Circuit.Or | Circuit.Xor
        | Circuit.Xnor | Circuit.Nand | Circuit.Nor | Circuit.Mux ->
          free < List.length nets
      in
      if fixes then List.iter (fun n -> fixed.(n) <- true) nets)
    (Circuit.gates_in_order c);
  fixed

(** Encode one copy of the locked circuit into [f]. Non-LUT gates encode
    as usual; LUT gates read their truth table from [key_vars] at their
    key offset. [share] maps nets to already-existing CNF variables
    (used to share primary inputs between the two attack copies).
    Returns the net-to-variable map of this copy.

    Only a net that a gate reads or drives, or that is a core input or
    output, gets a fresh variable (in ascending net order); every other
    net maps to 0. A variable for it would sit in no clause, keep
    activity 0 and propagate nothing when decided, and the others are
    numbered in the same order either way, so leaving it out changes no
    conflict or learnt clause (DESIGN.md, "Incremental SAT session").

    A LUT-row clause a pin satisfies is left out unless loading could
    fix the pinned net first: the pin's unit makes one of its literals
    true at level 0 before any search, so it could never be unit, a
    reason or a conflict. *)
let encode_locked ?pins (f : Cnf.t) (l : t) ~(key_vars : int array)
    ~(share : Circuit.net -> int option) : int array =
  let referenced = Array.make l.circuit.Circuit.next_net false in
  let mark n = referenced.(n) <- true in
  List.iter
    (fun (g : Circuit.gate) ->
      mark g.Circuit.output;
      Array.iter mark g.Circuit.inputs)
    (Circuit.gates_in_order l.circuit);
  Array.iter mark (input_nets l);
  Array.iter mark (output_nets l);
  let net_var =
    Array.init l.circuit.Circuit.next_net (fun n ->
        match share n with
        | Some v -> v
        | None -> if referenced.(n) then Cnf.fresh_var f else 0)
  in
  let pin =
    match pins with
    | None -> fun _ -> None
    | Some pins ->
      let fixable = fixable_at_load l.circuit in
      fun n -> if fixable.(n) then None else pins.(n)
  in
  let offset_of = Hashtbl.create 64 in
  List.iter (fun (net, off) -> Hashtbl.replace offset_of net off) l.offsets;
  List.iter
    (fun (g : Circuit.gate) ->
      match g.Circuit.kind with
      | Circuit.Lut table ->
        let out = net_var.(g.Circuit.output) in
        let off = Hashtbl.find offset_of g.Circuit.output in
        let k = Array.length g.Circuit.inputs in
        assert (Array.length table = 1 lsl k);
        (* the pinned inputs as a mask, and their values: a row whose
           bits differ from the values there has a guard literal a pin
           makes true *)
        let care = ref 0 and value = ref 0 in
        Array.iteri
          (fun i n ->
            match pin n with
            | Some b ->
              care := !care lor (1 lsl i);
              if b then value := !value lor (1 lsl i)
            | None -> ())
          g.Circuit.inputs;
        let keep_pos, keep_neg =
          match pin g.Circuit.output with
          | Some b -> (not b, b)
          | None -> (true, true)
        in
        for row = 0 to (1 lsl k) - 1 do
          if (row lxor !value) land !care = 0 then begin
            let guard =
              List.init k (fun i ->
                  let v = net_var.(g.Circuit.inputs.(i)) in
                  if (row lsr i) land 1 = 1 then -v else v)
            in
            let key = key_vars.(off + row) in
            (* guard -> (out <-> key) *)
            if keep_pos then Cnf.add_clause f (out :: -key :: guard);
            if keep_neg then Cnf.add_clause f (-out :: key :: guard)
          end
        done
      | Circuit.Const _ | Circuit.Buf | Circuit.Not | Circuit.And
      | Circuit.Or | Circuit.Xor | Circuit.Xnor | Circuit.Nand | Circuit.Nor
      | Circuit.Mux -> Tseitin.encode_gate f net_var g)
    (Circuit.gates_in_order l.circuit);
  net_var

(** Instantiate the circuit with an arbitrary key: LUT tables replaced by
    the corresponding key slice. *)
let apply_key (l : t) (key : bool array) : Circuit.t =
  if Array.length key <> l.key_bits then invalid_arg "apply_key: wrong key length";
  let c = l.circuit in
  let offset_of = Hashtbl.create 64 in
  List.iter (fun (net, off) -> Hashtbl.replace offset_of net off) l.offsets;
  let keyed = Circuit.create (c.Circuit.name ^ "_keyed") in
  keyed.Circuit.next_net <- c.Circuit.next_net;
  keyed.Circuit.inputs <- c.Circuit.inputs;
  keyed.Circuit.outputs <- c.Circuit.outputs;
  keyed.Circuit.dffs <- c.Circuit.dffs;
  List.iter
    (fun (g : Circuit.gate) ->
      match g.Circuit.kind with
      | Circuit.Lut table ->
        let off = Hashtbl.find offset_of g.Circuit.output in
        let table' = Array.init (Array.length table) (fun i -> key.(off + i)) in
        Circuit.add_gate_with_output keyed (Circuit.Lut table') g.Circuit.inputs
          ~output:g.Circuit.output
      | Circuit.Const _ | Circuit.Buf | Circuit.Not | Circuit.And
      | Circuit.Or | Circuit.Xor | Circuit.Xnor | Circuit.Nand | Circuit.Nor
      | Circuit.Mux ->
        Circuit.add_gate_with_output keyed g.Circuit.kind g.Circuit.inputs
          ~output:g.Circuit.output)
    (Circuit.gates_in_order c);
  keyed

(** Whether [key] unlocks the original function: the keyed circuit is
    proved equivalent to the original on every scan input, so a "key
    recovered" verdict comes with a verified key. *)
let key_is_correct (l : t) (key : bool array) : bool =
  match Equiv.check l.circuit (apply_key l key) with
  | Equiv.Equivalent -> true
  | Equiv.Different _ -> false

(** The oracle of the threat model: evaluate the *unlocked* combinational
    core on a scan-input vector. *)
let make_oracle (l : t) : bool array -> bool array =
  let sim = Simulate.create l.circuit in
  let ins = input_nets l in
  let outs = output_nets l in
  fun (stimulus : bool array) ->
    if Array.length stimulus <> Array.length ins then
      invalid_arg "oracle: wrong stimulus width";
    Array.iteri (fun i n -> sim.Simulate.values.(n) <- stimulus.(i)) ins;
    Simulate.eval sim;
    Array.map (fun n -> sim.Simulate.values.(n)) outs
