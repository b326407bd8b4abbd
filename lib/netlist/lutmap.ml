(** Technology mapping onto k-input LUTs via cut enumeration.

    A classical depth-oriented structural mapper with area-flow
    tie-breaking: for every gate output we enumerate cuts of at most k
    leaves by merging fanin cuts, keep the best few by (depth, area
    flow), and extract a LUT cover backward from the circuit roots
    (primary outputs and DFF D-inputs). Buffers are depth- and
    area-transparent. Truth tables are computed by simulating each
    selected cone's gates once over all patterns of its leaves.

    The mapped circuit reuses the original net numbering, so primary
    I/O and DFF records carry over unchanged. *)

let cut_limit = 8

module IntSet = Set.Make (Int)

type cut = { leaves : IntSet.t; depth : int; aflow : float }

type mapping = {
  k : int;
  luts : (Circuit.net * int list * bool array) list;
      (* output net, leaf nets, truth table *)
}

let gate_array (c : Circuit.t) = Array.of_list (Circuit.gates_in_order c)

let producer_table (gates : Circuit.gate array) =
  let t = Hashtbl.create (Array.length gates) in
  Array.iteri (fun i g -> Hashtbl.replace t g.Circuit.output i) gates;
  t

(* nets that terminate cuts: primary inputs and DFF outputs *)
let source_set (c : Circuit.t) : (Circuit.net, unit) Hashtbl.t =
  let s = Hashtbl.create 64 in
  List.iter (fun (_, nets) -> Array.iter (fun n -> Hashtbl.replace s n ()) nets)
    c.Circuit.inputs;
  List.iter (fun (d : Circuit.dff) -> Hashtbl.replace s d.q ()) c.Circuit.dffs;
  s

(* roots that must be covered: primary outputs and DFF inputs *)
let root_nets (c : Circuit.t) : Circuit.net list =
  let outs =
    List.concat_map (fun (_, nets) -> Array.to_list nets) c.Circuit.outputs
  in
  let ds = List.map (fun (d : Circuit.dff) -> d.d) c.Circuit.dffs in
  outs @ ds

(** The truth table of the cone rooted at [net] over [leaves] (leaf [i]
    is bit [i] of the table index). Each gate of the cone is evaluated
    once, over all [2^k] leaf patterns at a time. *)
let truth_table gates producer (leaves : int list) (net : Circuit.net) : bool array =
  let size = 1 lsl List.length leaves in
  let values : (Circuit.net, bool array) Hashtbl.t = Hashtbl.create 16 in
  List.iteri
    (fun bit leaf ->
      Hashtbl.replace values leaf (Array.init size (fun idx -> (idx lsr bit) land 1 = 1)))
    leaves;
  let rec eval n =
    match Hashtbl.find_opt values n with
    | Some v -> v
    | None ->
      let g : Circuit.gate =
        match Hashtbl.find_opt producer n with
        | Some i -> gates.(i)
        | None -> invalid_arg (Printf.sprintf "truth_table: net %d has no driver" n)
      in
      let ins = Array.map eval g.inputs in
      let pins = Array.make (Array.length ins) false in
      let v =
        Array.init size (fun idx ->
            for a = 0 to Array.length ins - 1 do pins.(a) <- ins.(a).(idx) done;
            Circuit.eval_gate g.kind pins)
      in
      Hashtbl.add values n v;
      v
  in
  eval net

(** Cut-selection objective: [`Depth] minimizes logic levels (area flow
    as tie-break); [`Area] minimizes area flow (depth as tie-break),
    which is what fabric characterization wants — LUT count drives
    fabric size, while a level or two of extra depth is immaterial. *)
type mode = [ `Depth | `Area ]

let cut_compare (mode : mode) a b =
  let by_depth () =
    if a.depth <> b.depth then compare a.depth b.depth
    else if a.aflow <> b.aflow then compare a.aflow b.aflow
    else compare (IntSet.cardinal a.leaves) (IntSet.cardinal b.leaves)
  in
  match mode with
  | `Depth -> by_depth ()
  | `Area ->
    if a.aflow <> b.aflow then compare a.aflow b.aflow
    else by_depth ()

(** Per-net best cuts: minimal (depth, area flow). *)
let enumerate_cuts ~mode ~k (c : Circuit.t) :
    Circuit.gate array * (Circuit.net, cut) Hashtbl.t =
  let gates = gate_array c in
  let sources = source_set c in
  let best : (Circuit.net, cut) Hashtbl.t = Hashtbl.create 256 in
  let cuts : (Circuit.net, cut list) Hashtbl.t = Hashtbl.create 256 in
  let leaf_aflow = Hashtbl.create 256 in
  let aflow_of net =
    Option.value (Hashtbl.find_opt leaf_aflow net) ~default:0.0
  in
  let cuts_of net : cut list =
    if Hashtbl.mem sources net then
      [ { leaves = IntSet.singleton net; depth = 0; aflow = 0.0 } ]
    else
      match Hashtbl.find_opt cuts net with
      | Some cs -> cs
      | None -> [ { leaves = IntSet.singleton net; depth = 0; aflow = 0.0 } ]
  in
  let order = Simulate.levelize c in
  Array.iter
    (fun (g : Circuit.gate) ->
      let out = g.Circuit.output in
      let transparent =
        match g.Circuit.kind with
        | Circuit.Buf -> true
        | Circuit.Const _ | Circuit.Not | Circuit.And | Circuit.Or
        | Circuit.Xor | Circuit.Xnor | Circuit.Nand | Circuit.Nor
        | Circuit.Mux | Circuit.Lut _ -> false
      in
      let candidate_cuts =
        if transparent then cuts_of g.Circuit.inputs.(0)
        else begin
          let fanin_cuts = Array.map cuts_of g.Circuit.inputs in
          let merged = ref [] and count = ref 0 in
          let rec combine i (acc : cut) =
            if !count > 400 then ()
            else if i >= Array.length fanin_cuts then begin
              incr count;
              merged := acc :: !merged
            end
            else
              List.iter
                (fun (cut : cut) ->
                  let leaves = IntSet.union acc.leaves cut.leaves in
                  if IntSet.cardinal leaves <= k then
                    combine (i + 1)
                      { leaves; depth = max acc.depth cut.depth; aflow = 0.0 })
                fanin_cuts.(i)
          in
          combine 0 { leaves = IntSet.empty; depth = 0; aflow = 0.0 };
          List.map
            (fun cut ->
              let aflow =
                IntSet.fold (fun leaf acc -> acc +. aflow_of leaf) cut.leaves 1.0
              in
              { cut with depth = cut.depth + 1; aflow })
            !merged
        end
      in
      let sorted = List.sort (cut_compare mode) candidate_cuts in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: rest -> x :: take (n - 1) rest
      in
      let kept = take cut_limit sorted in
      (match kept with
      | best_cut :: _ ->
        Hashtbl.replace best out best_cut;
        Hashtbl.replace leaf_aflow out best_cut.aflow
      | [] -> ());
      (* the trivial cut lets parents treat this net as a leaf *)
      let trivial =
        { leaves = IntSet.singleton out;
          depth = (match kept with [] -> 1 | b :: _ -> b.depth);
          aflow = aflow_of out }
      in
      Hashtbl.replace cuts out (kept @ [ trivial ]))
    order;
  (gates, best)

(** Map a circuit onto k-LUTs. Returns the mapped circuit (LUT gates
    only, same net ids) and the mapping description.

    Primary outputs and DFF D-pins whose cone is a pure buffer chain are
    rewired to the chain's source instead of costing an identity LUT —
    a pad or flip-flop input connects to the routing fabric directly. *)
let map ?(mode : mode = `Area) ~k (c : Circuit.t) : Circuit.t * mapping =
  let gates, best = enumerate_cuts ~mode ~k c in
  let producer = producer_table gates in
  let sources = source_set c in
  (* follow buffer chains back to a real driver *)
  let rec resolve_alias net =
    if Hashtbl.mem sources net then net
    else
      match Hashtbl.find_opt producer net with
      | Some i -> (
        match gates.(i).Circuit.kind with
        | Circuit.Buf -> resolve_alias gates.(i).Circuit.inputs.(0)
        | Circuit.Const _ | Circuit.Not | Circuit.And | Circuit.Or
        | Circuit.Xor | Circuit.Xnor | Circuit.Nand | Circuit.Nor
        | Circuit.Mux | Circuit.Lut _ -> net)
      | None -> net
  in
  let c =
    { c with
      Circuit.outputs =
        List.map
          (fun (name, nets) -> (name, Array.map resolve_alias nets))
          c.Circuit.outputs;
      Circuit.dffs =
        List.map
          (fun (d : Circuit.dff) -> { d with Circuit.d = resolve_alias d.d })
          c.Circuit.dffs }
  in
  (* a net is "covered" by emitting a LUT whose function is its cone over
     the chosen cut; cut leaves become new cover obligations *)
  let required = Queue.create () in
  let visited = Hashtbl.create 256 in
  let demand net =
    if (not (Hashtbl.mem sources net)) && not (Hashtbl.mem visited net) then begin
      Hashtbl.add visited net ();
      Queue.add net required
    end
  in
  List.iter demand (root_nets c);
  let luts = ref [] in
  while not (Queue.is_empty required) do
    let net = Queue.pop required in
    let emit_const_or_copy () =
      (* no combinational cut: constant driver, or a root aliasing a
         source through buffers *)
      match Hashtbl.find_opt producer net with
      | Some i -> (
        match gates.(i).Circuit.kind with
        | Circuit.Const b -> luts := (net, [], [| b |]) :: !luts
        | Circuit.Buf ->
          let table = truth_table gates producer [ gates.(i).Circuit.inputs.(0) ] net in
          demand gates.(i).Circuit.inputs.(0);
          luts := (net, [ gates.(i).Circuit.inputs.(0) ], table) :: !luts
        | _ -> ())
      | None -> ()
    in
    match Hashtbl.find_opt best net with
    | None -> emit_const_or_copy ()
    | Some cut ->
      let leaves = IntSet.elements cut.leaves in
      if leaves = [ net ] then emit_const_or_copy ()
      else begin
        let table = truth_table gates producer leaves net in
        luts := (net, leaves, table) :: !luts;
        List.iter demand leaves
      end
  done;
  let mapped = Circuit.create (c.Circuit.name ^ "_lutmapped") in
  mapped.Circuit.next_net <- c.Circuit.next_net;
  mapped.Circuit.inputs <- c.Circuit.inputs;
  mapped.Circuit.outputs <- c.Circuit.outputs;
  mapped.Circuit.dffs <- c.Circuit.dffs;
  List.iter
    (fun (net, leaves, table) ->
      Circuit.add_gate_with_output mapped (Circuit.Lut table)
        (Array.of_list leaves) ~output:net)
    !luts;
  (mapped, { k; luts = !luts })

let lut_count (m : mapping) = List.length m.luts

(** Depth in LUT levels of the mapped circuit. *)
let depth (mapped : Circuit.t) : int =
  let order = Simulate.levelize mapped in
  let level = Hashtbl.create 256 in
  let net_level n = Option.value (Hashtbl.find_opt level n) ~default:0 in
  Array.fold_left
    (fun acc (g : Circuit.gate) ->
      let l =
        1 + Array.fold_left (fun m input -> max m (net_level input)) 0 g.inputs
      in
      Hashtbl.replace level g.Circuit.output l;
      max acc l)
    0 order
