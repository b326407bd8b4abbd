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

(* What encoding a copy reads, fixed per lock and compiled once by
   [of_mapped]: two replays per DIP read it instead of re-deriving it *)
type compiled = {
  gates : Circuit.gate array;    (* in [Circuit.gates_in_order] *)
  key_offset : int array;        (* per gate: its LUT's first key bit;
                                    -1 for any other gate *)
  referenced : bool array;       (* per net: a gate reads or drives it,
                                    or it is a core input or output *)
  inputs : Circuit.net array;    (* the core's inputs and outputs: *)
  outputs : Circuit.net array;   (* {!Equiv}'s scan view, flattened *)
  fixable : bool array;          (* per net: [fixable_at_load] *)
}

type t = {
  circuit : Circuit.t;          (* LUT-mapped netlist *)
  key_bits : int;
  correct_key : bool array;     (* the LUT tables in gate order *)
  compiled : compiled;
}

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

(** Lock a LUT-mapped circuit, compiling once what encoding a copy
    reads. *)
let of_mapped (c : Circuit.t) : t =
  let gates = Array.of_list (Circuit.gates_in_order c) in
  (* a LUT's table has 2^k >= 1 rows, so an empty one is no LUT *)
  let tables =
    Array.map
      (fun (g : Circuit.gate) ->
        match g.Circuit.kind with
        | Circuit.Lut table ->
          assert (Array.length table = 1 lsl Array.length g.Circuit.inputs);
          table
        | Circuit.Const _ | Circuit.Buf | Circuit.Not | Circuit.And
        | Circuit.Or | Circuit.Xor | Circuit.Xnor | Circuit.Nand | Circuit.Nor
        | Circuit.Mux -> [||])
      gates
  in
  let key_offset = Array.make (Array.length gates) (-1) and key_bits = ref 0 in
  Array.iteri
    (fun i table ->
      if Array.length table > 0 then begin
        key_offset.(i) <- !key_bits;
        key_bits := !key_bits + Array.length table
      end)
    tables;
  let inputs = Array.concat (List.map snd (Equiv.scan_inputs c)) in
  let outputs = Array.concat (List.map snd (Equiv.scan_outputs c)) in
  let referenced = Array.make c.Circuit.next_net false in
  let mark n = referenced.(n) <- true in
  Array.iter
    (fun (g : Circuit.gate) ->
      mark g.Circuit.output;
      Array.iter mark g.Circuit.inputs)
    gates;
  Array.iter mark inputs;
  Array.iter mark outputs;
  { circuit = c; key_bits = !key_bits;
    correct_key = Array.concat (Array.to_list tables);
    compiled =
      { gates; key_offset; referenced; inputs; outputs;
        fixable = fixable_at_load c } }

let input_nets (l : t) : Circuit.net array = l.compiled.inputs

let output_nets (l : t) : Circuit.net array = l.compiled.outputs

(* add the clause [a; b; guard] of LUT row [row], whose guard holds,
   per input, the literal that is false when the input has the row's
   bit; built straight into the array [Cnf] keeps *)
let add_row (f : Cnf.t) (net_var : int array) (ins : Circuit.net array) row
    a b =
  let k = Array.length ins in
  let c = Array.make (k + 2) a in
  c.(1) <- b;
  for i = 0 to k - 1 do
    let v = net_var.(ins.(i)) in
    c.(i + 2) <- (if (row lsr i) land 1 = 1 then -v else v)
  done;
  Cnf.add_clause_array f c

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
  let cl = l.compiled in
  let net_var =
    Array.init (Array.length cl.referenced) (fun n ->
        match share n with
        | Some v -> v
        | None -> if cl.referenced.(n) then Cnf.fresh_var f else 0)
  in
  let pin =
    match pins with
    | None -> fun _ -> None
    | Some pins -> fun n -> if cl.fixable.(n) then None else pins.(n)
  in
  Array.iteri
    (fun gi (g : Circuit.gate) ->
      let off = cl.key_offset.(gi) in
      if off < 0 then Tseitin.encode_gate f net_var g
      else begin
        let out = net_var.(g.Circuit.output) in
        let ins = g.Circuit.inputs in
        (* the pinned inputs as a mask, and their values: a row whose
           bits differ from the values there has a guard literal a pin
           makes true *)
        let care = ref 0 and value = ref 0 in
        for i = 0 to Array.length ins - 1 do
          match pin ins.(i) with
          | Some b ->
            care := !care lor (1 lsl i);
            if b then value := !value lor (1 lsl i)
          | None -> ()
        done;
        let keep_pos, keep_neg =
          match pin g.Circuit.output with
          | Some b -> (not b, b)
          | None -> (true, true)
        in
        for row = 0 to (1 lsl Array.length ins) - 1 do
          if (row lxor !value) land !care = 0 then begin
            let key = key_vars.(off + row) in
            (* guard -> (out <-> key) *)
            if keep_pos then add_row f net_var ins row out (-key);
            if keep_neg then add_row f net_var ins row (-out) key
          end
        done
      end)
    cl.gates;
  net_var

(** Instantiate the circuit with an arbitrary key: LUT tables replaced by
    the corresponding key slice. *)
let apply_key (l : t) (key : bool array) : Circuit.t =
  if Array.length key <> l.key_bits then invalid_arg "apply_key: wrong key length";
  let c = l.circuit in
  let keyed = Circuit.create (c.Circuit.name ^ "_keyed") in
  keyed.Circuit.next_net <- c.Circuit.next_net;
  keyed.Circuit.inputs <- c.Circuit.inputs;
  keyed.Circuit.outputs <- c.Circuit.outputs;
  keyed.Circuit.dffs <- c.Circuit.dffs;
  Array.iteri
    (fun i (g : Circuit.gate) ->
      let off = l.compiled.key_offset.(i) in
      let kind =
        if off < 0 then g.Circuit.kind
        else Circuit.Lut (Array.sub key off (1 lsl Array.length g.Circuit.inputs))
      in
      Circuit.add_gate_with_output keyed kind g.Circuit.inputs
        ~output:g.Circuit.output)
    l.compiled.gates;
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
  let ins = l.compiled.inputs and outs = l.compiled.outputs in
  fun (stimulus : bool array) ->
    if Array.length stimulus <> Array.length ins then
      invalid_arg "oracle: wrong stimulus width";
    Array.iteri (fun i n -> sim.Simulate.values.(n) <- stimulus.(i)) ins;
    Simulate.eval sim;
    Array.map (fun n -> sim.Simulate.values.(n)) outs
