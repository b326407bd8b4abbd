(* Reference LUT mapper for the differential suite: the cut selection
   of [Alice_netlist.Lutmap] written over plain structures, with its own
   levelization. Cuts are [IntSet]s, per-net tables are [Hashtbl]s, and
   each gate's candidates are ranked by [List.sort] (stable) and cut to
   the first 8, so every selection rule the array mapper must reproduce
   is written here in its plainest form.

   It also counts, for the suite's coverage assertions, the gates whose
   enumeration stopped at the 400-merge cap ([cap_hits]) and the nets a
   cover needed but no cut covered ([uncovered]); the latter leaves the
   mapped circuit's net undriven, where the array mapper raises. *)

module Circuit = Alice_netlist.Circuit
module IntSet = Set.Make (Int)

let cut_limit = 8

let cap_hits = ref 0
let uncovered = ref 0

type cut = { leaves : IntSet.t; depth : int; aflow : float }

let levelize (c : Circuit.t) : Circuit.gate array =
  let gates = Array.of_list (Circuit.gates_in_order c) in
  let producer = Hashtbl.create (Array.length gates) in
  Array.iteri (fun i (g : Circuit.gate) -> Hashtbl.replace producer g.output i) gates;
  let is_source = Hashtbl.create 64 in
  List.iter
    (fun (_, nets) -> Array.iter (fun n -> Hashtbl.replace is_source n ()) nets)
    c.Circuit.inputs;
  List.iter (fun (d : Circuit.dff) -> Hashtbl.replace is_source d.q ()) c.Circuit.dffs;
  let state = Array.make (Array.length gates) `White in
  let order = ref [] in
  let rec visit i =
    match state.(i) with
    | `Black -> ()
    | `Grey -> failwith "combinational cycle"
    | `White ->
      state.(i) <- `Grey;
      Array.iter
        (fun input ->
          if not (Hashtbl.mem is_source input) then
            match Hashtbl.find_opt producer input with
            | Some j -> visit j
            | None -> ())
        gates.(i).Circuit.inputs;
      state.(i) <- `Black;
      order := gates.(i) :: !order
  in
  Array.iteri (fun i _ -> visit i) gates;
  Array.of_list (List.rev !order)

let producer_table (gates : Circuit.gate array) =
  let t = Hashtbl.create (Array.length gates) in
  Array.iteri (fun i (g : Circuit.gate) -> Hashtbl.replace t g.output i) gates;
  t

let source_set (c : Circuit.t) : (Circuit.net, unit) Hashtbl.t =
  let s = Hashtbl.create 64 in
  List.iter (fun (_, nets) -> Array.iter (fun n -> Hashtbl.replace s n ()) nets)
    c.Circuit.inputs;
  List.iter (fun (d : Circuit.dff) -> Hashtbl.replace s d.q ()) c.Circuit.dffs;
  s

let root_nets (c : Circuit.t) : Circuit.net list =
  List.concat_map (fun (_, nets) -> Array.to_list nets) c.Circuit.outputs
  @ List.map (fun (d : Circuit.dff) -> d.d) c.Circuit.dffs

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
      let g : Circuit.gate = gates.(Hashtbl.find producer n) in
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

let cut_compare mode a b =
  let by_depth () =
    if a.depth <> b.depth then compare a.depth b.depth
    else if a.aflow <> b.aflow then compare a.aflow b.aflow
    else compare (IntSet.cardinal a.leaves) (IntSet.cardinal b.leaves)
  in
  match mode with
  | `Depth -> by_depth ()
  | `Area -> if a.aflow <> b.aflow then compare a.aflow b.aflow else by_depth ()

let enumerate_cuts ~mode ~k (c : Circuit.t) =
  let gates = Array.of_list (Circuit.gates_in_order c) in
  let sources = source_set c in
  let best : (Circuit.net, cut) Hashtbl.t = Hashtbl.create 256 in
  let cuts : (Circuit.net, cut list) Hashtbl.t = Hashtbl.create 256 in
  let leaf_aflow = Hashtbl.create 256 in
  let aflow_of net = Option.value (Hashtbl.find_opt leaf_aflow net) ~default:0.0 in
  let cuts_of net : cut list =
    let trivial = [ { leaves = IntSet.singleton net; depth = 0; aflow = 0.0 } ] in
    if Hashtbl.mem sources net then trivial
    else Option.value (Hashtbl.find_opt cuts net) ~default:trivial
  in
  Array.iter
    (fun (g : Circuit.gate) ->
      let out = g.Circuit.output in
      let candidate_cuts =
        match g.Circuit.kind with
        | Circuit.Buf -> cuts_of g.Circuit.inputs.(0)
        | _ ->
          let fanin_cuts = Array.map cuts_of g.Circuit.inputs in
          let merged = ref [] and count = ref 0 and capped = ref false in
          let rec combine i (acc : cut) =
            if !count > 400 then capped := true
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
          if !capped then incr cap_hits;
          List.map
            (fun cut ->
              let aflow =
                IntSet.fold (fun leaf acc -> acc +. aflow_of leaf) cut.leaves 1.0
              in
              { cut with depth = cut.depth + 1; aflow })
            !merged
      in
      let kept = List.filteri (fun i _ -> i < cut_limit)
          (List.sort (cut_compare mode) candidate_cuts) in
      (match kept with
      | best_cut :: _ ->
        Hashtbl.replace best out best_cut;
        Hashtbl.replace leaf_aflow out best_cut.aflow
      | [] -> ());
      let trivial =
        { leaves = IntSet.singleton out;
          depth = (match kept with [] -> 1 | b :: _ -> b.depth);
          aflow = aflow_of out }
      in
      Hashtbl.replace cuts out (kept @ [ trivial ]))
    (levelize c);
  (gates, best)

let map ?(mode = `Area) ~k (c : Circuit.t) =
  let gates, best = enumerate_cuts ~mode ~k c in
  let producer = producer_table gates in
  let sources = source_set c in
  let rec resolve_alias net =
    if Hashtbl.mem sources net then net
    else
      match Hashtbl.find_opt producer net with
      | Some i -> (
        match gates.(i).Circuit.kind with
        | Circuit.Buf -> resolve_alias gates.(i).Circuit.inputs.(0)
        | _ -> net)
      | None -> net
  in
  let c =
    { c with
      Circuit.outputs =
        List.map (fun (name, nets) -> (name, Array.map resolve_alias nets))
          c.Circuit.outputs;
      Circuit.dffs =
        List.map
          (fun (d : Circuit.dff) -> { d with Circuit.d = resolve_alias d.d })
          c.Circuit.dffs }
  in
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
      match Hashtbl.find_opt producer net with
      | Some i -> (
        match gates.(i).Circuit.kind with
        | Circuit.Const b -> luts := (net, [], [| b |]) :: !luts
        | Circuit.Buf ->
          let table = truth_table gates producer [ gates.(i).Circuit.inputs.(0) ] net in
          demand gates.(i).Circuit.inputs.(0);
          luts := (net, [ gates.(i).Circuit.inputs.(0) ], table) :: !luts
        | _ -> incr uncovered)
      | None -> ()
    in
    match Hashtbl.find_opt best net with
    | None -> emit_const_or_copy ()
    | Some cut ->
      let leaves = IntSet.elements cut.leaves in
      if leaves = [ net ] then emit_const_or_copy ()
      else begin
        luts := (net, leaves, truth_table gates producer leaves net) :: !luts;
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
  (mapped, !luts)
