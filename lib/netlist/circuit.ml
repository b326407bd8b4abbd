(** Gate-level netlist intermediate representation.

    Nets are integers; every net is driven by exactly one gate, one D
    flip-flop, or a primary input. Gates carry the hierarchical path of
    the RTL instance they were synthesized from, which lets analyses
    attribute logic back to modules. A single implicit clock domain is
    assumed (all benchmarks comply); asynchronous resets are folded into
    the D-input logic during synthesis. *)

type net = int

type gate_kind =
  | Const of bool
  | Buf
  | Not
  | And
  | Or
  | Xor
  | Xnor
  | Nand
  | Nor
  | Mux  (* inputs [sel; a; b]: output = sel ? b : a *)
  | Lut of bool array  (* truth table, index = inputs as little-endian bits *)

type gate = {
  kind : gate_kind;
  inputs : net array;
  output : net;
  path : string;  (* hierarchical instance path of origin *)
}

type dff = { d : net; q : net; ff_path : string }

type t = {
  mutable next_net : int;
  mutable gates : gate list;       (* reverse creation order *)
  mutable gate_count : int;
  mutable dffs : dff list;
  mutable inputs : (string * net array) list;   (* port name, LSB-first *)
  mutable outputs : (string * net array) list;
  name : string;
}

let create name =
  { next_net = 0; gates = []; gate_count = 0; dffs = []; inputs = [];
    outputs = []; name }

let fresh_net c =
  let n = c.next_net in
  c.next_net <- n + 1;
  n

let add_gate c ?(path = "") kind inputs : net =
  let output = fresh_net c in
  c.gates <- { kind; inputs; output; path } :: c.gates;
  c.gate_count <- c.gate_count + 1;
  output

(** Add a gate driving a pre-allocated net (used to close the knot when a
    variable's nets were declared before its driver was synthesized). *)
let add_gate_with_output c ?(path = "") kind inputs ~(output : net) : unit =
  c.gates <- { kind; inputs; output; path } :: c.gates;
  c.gate_count <- c.gate_count + 1

let add_dff ?(path = "") c ~(d : net) : net =
  let q = fresh_net c in
  c.dffs <- { d; q; ff_path = path } :: c.dffs;
  q

(* DFF with a pre-allocated Q net (needed when the register is read
   before its always block is synthesized) *)
let add_dff_q ?(path = "") c ~(d : net) ~(q : net) : unit =
  c.dffs <- { d; q; ff_path = path } :: c.dffs

let add_input c name width : net array =
  let nets = Array.init width (fun _ -> fresh_net c) in
  c.inputs <- c.inputs @ [ (name, nets) ];
  nets

let set_output c name (nets : net array) : unit =
  c.outputs <- c.outputs @ [ (name, nets) ]

let const c ?(path = "") b : net = add_gate c ~path (Const b) [||]

let gates_in_order (c : t) : gate list = List.rev c.gates

let dff_list (c : t) : dff list = List.rev c.dffs

(** For every net, the index in [gates] of the gate driving it, or -1
    (the last one when several do). *)
let driver_index (c : t) (gates : gate array) : int array =
  let t = Array.make c.next_net (-1) in
  Array.iteri (fun i g -> t.(g.output) <- i) gates;
  t

(** For every net, whether it is a source of the combinational logic:
    a primary input or a DFF output. *)
let source_nets (c : t) : bool array =
  let s = Array.make c.next_net false in
  List.iter (fun (_, nets) -> Array.iter (fun n -> s.(n) <- true) nets) c.inputs;
  List.iter (fun d -> s.(d.q) <- true) c.dffs;
  s

let gate_count c = c.gate_count

let dff_count c = List.length c.dffs

let input_bit_count c =
  List.fold_left (fun acc (_, nets) -> acc + Array.length nets) 0 c.inputs

let output_bit_count c =
  List.fold_left (fun acc (_, nets) -> acc + Array.length nets) 0 c.outputs

let io_bit_count c = input_bit_count c + output_bit_count c

let find_input c name = List.assoc_opt name c.inputs

let find_output c name = List.assoc_opt name c.outputs

(** Number of LUT gates (meaningful after {!Lutmap.map}). *)
let lut_count c =
  List.fold_left
    (fun acc g -> match g.kind with Lut _ -> acc + 1 | _ -> acc)
    0 c.gates

let eval_gate (kind : gate_kind) (vals : bool array) : bool =
  match kind with
  | Const b -> b
  | Buf -> vals.(0)
  | Not -> not vals.(0)
  | And -> vals.(0) && vals.(1)
  | Or -> vals.(0) || vals.(1)
  | Xor -> vals.(0) <> vals.(1)
  | Xnor -> vals.(0) = vals.(1)
  | Nand -> not (vals.(0) && vals.(1))
  | Nor -> not (vals.(0) || vals.(1))
  | Mux -> if vals.(0) then vals.(2) else vals.(1)
  | Lut table ->
    let idx = ref 0 in
    Array.iteri (fun i v -> if v then idx := !idx lor (1 lsl i)) vals;
    table.(!idx)

let pp_stats fmt c =
  Format.fprintf fmt "%s: %d gates, %d DFFs, %d inputs, %d outputs" c.name
    c.gate_count (dff_count c) (input_bit_count c) (output_bit_count c)
