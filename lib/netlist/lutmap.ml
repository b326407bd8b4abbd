(** Technology mapping onto k-input LUTs via cut enumeration.

    A classical structural mapper with area-flow selection and depth
    tie-breaking: for every gate output we enumerate cuts of at most k
    leaves by merging fanin cuts, keep the best few by (area flow,
    depth, leaf count), and extract a LUT cover backward from the
    circuit roots (primary outputs and DFF D-inputs). Buffers are depth- and
    area-transparent. Truth tables are computed by simulating each
    selected cone's gates once over all patterns of its leaves.

    The mapped circuit reuses the original net numbering, so primary
    I/O and DFF records carry over unchanged.

    {b Representation.} Cuts live in flat stores of parallel arrays,
    with no heap block per cut: cut [i] keeps its leaves, strictly
    ascending and at most k, at [leaves.(i*k) ..], and beside them its
    leaf count, depth, area flow and a 62-bit signature (bit
    [leaf mod 62] per leaf). A net's cut list is a run of consecutive
    cuts. Two cuts are united by a two-pointer merge that stops as soon
    as it passes k leaves, unless the popcount of their signatures'
    union, a lower bound on the union's size, already exceeds k. The
    other per-net tables (cut lists, best cut, area flow, sources,
    drivers, the cover's visited set, the truth-table memo) are arrays
    indexed by net id, sized from [next_net]. Truth tables are computed
    32 leaf patterns per word.

    {b Selection.} The mapping feeds every characterization digest and
    every programmed bitstream byte, so which cuts survive is part of
    the output and is fixed exactly:
    - a gate's candidates are offered in a fixed order: its merged cuts
      newest first, a buffer's fanin cuts in stored order;
    - each candidate enters an 8-slot buffer after every kept cut that
      compares [<=] to it, and the ninth falls off. That is exactly
      the first 8 of a stable sort of the offered sequence, since no
      later offer can lift a dropped cut above 8 cuts that precede it;
    - equal leaf sets reached by different merges are all kept, each
      taking a slot;
    - enumeration stops once more than 400 merged cuts are collected;
    - area flow is summed from 1.0 over the leaves in ascending order.
      It double-counts reconvergent logic, so it grows exponentially
      with depth and passes 2^53 on deep designs, where float sums
      round and their order changes the values compared;
    - the trivial cut (the net itself) goes last. *)

let cut_limit = 8

(* a gate's merged cuts are collected until there are more than this *)
let merge_cap = 400

type mapping = {
  k : int;
  luts : (Circuit.net * int list * bool array) list;
      (* output net, leaf nets, truth table *)
}

(* A growable table of cuts of at most [k] leaves: cut [i] has
   [len.(i)] strictly ascending leaves at [leaves.(i*k) ..], a
   signature with bit [leaf mod 62] set per leaf, a depth and an area
   flow. *)
type store = {
  k : int;
  mutable leaves : int array;
  mutable len : int array;
  mutable sign : int array;
  mutable depth : int array;
  mutable aflow : float array;
  mutable size : int;
}

let store ~k capacity =
  let capacity = Int.max capacity 1 in
  { k; leaves = Array.make (capacity * k) 0; len = Array.make capacity 0;
    sign = Array.make capacity 0; depth = Array.make capacity 0;
    aflow = Array.make capacity 0.0; size = 0 }

(* a new cut slot at the end of [st], which doubles when full; the
   caller fills it in *)
let push st =
  if st.size = Array.length st.len then begin
    let extend a fill =
      let b = Array.make (2 * Array.length a) fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    st.leaves <- extend st.leaves 0;
    st.len <- extend st.len 0;
    st.sign <- extend st.sign 0;
    st.depth <- extend st.depth 0;
    st.aflow <- extend st.aflow 0.0
  end;
  st.size <- st.size + 1;
  st.size - 1

(* a one-leaf cut of depth 0 and area flow 0 *)
let push_leaf st net =
  let i = push st in
  st.leaves.(i * st.k) <- net;
  st.len.(i) <- 1;
  st.sign.(i) <- 1 lsl (net mod 62);
  st.depth.(i) <- 0;
  st.aflow.(i) <- 0.0;
  i

let copy src i dst =
  let j = push dst in
  for t = 0 to src.len.(i) - 1 do
    dst.leaves.((j * dst.k) + t) <- src.leaves.((i * src.k) + t)
  done;
  dst.len.(j) <- src.len.(i);
  dst.sign.(j) <- src.sign.(i);
  dst.depth.(j) <- src.depth.(i);
  dst.aflow.(j) <- src.aflow.(i)

let leaves_of st i = Array.sub st.leaves (i * st.k) st.len.(i)

(* The union of the ascending runs [a.(ai) ..] of length [la] and
   [b.(bi) ..] of length [lb], written to [dst.(di) ..]: its length, or
   -1 once it would pass [k]. *)
let merge k (a : int array) ai la (b : int array) bi lb (dst : int array) di =
  let i = ref 0 and j = ref 0 and n = ref 0 in
  while !n < k && !i < la && !j < lb do
    let x = a.(ai + !i) and y = b.(bi + !j) in
    if x <= y then incr i;
    if y <= x then incr j;
    dst.(di + !n) <- (if x < y then x else y);
    incr n
  done;
  if (!i < la && !j < lb) || !n + (la - !i) + (lb - !j) > k then -1
  else begin
    (* at most one run has leaves left: append them *)
    for t = !i to la - 1 do dst.(di + !n + t - !i) <- a.(ai + t) done;
    n := !n + (la - !i);
    for t = !j to lb - 1 do dst.(di + !n + t - !j) <- b.(bi + t) done;
    !n + (lb - !j)
  end

(* set bits of a signature (bits 0..61) *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

(* roots that must be covered: primary outputs and DFF inputs *)
let root_nets (c : Circuit.t) : Circuit.net list =
  let outs =
    List.concat_map (fun (_, nets) -> Array.to_list nets) c.Circuit.outputs
  in
  let ds = List.map (fun (d : Circuit.dff) -> d.d) c.Circuit.dffs in
  outs @ ds

(* Truth tables are computed 32 leaf patterns per word: pattern [idx]
   is bit [idx mod 32] of word [idx / 32]. *)
let ones = 0xffff_ffff

(* the word pattern of index bit [b] for [b < 5] *)
let low_bit_words = [| 0xaaaa_aaaa; 0xcccc_cccc; 0xf0f0_f0f0; 0xff00_ff00; 0xffff_0000 |]

(* word [w] of a leaf's table, for the leaf that is bit [bit] of the
   pattern index *)
let leaf_word bit w =
  if bit < 5 then low_bit_words.(bit)
  else if (w lsr (bit - 5)) land 1 = 1 then ones
  else 0

(* word [w] of a gate's table, from its inputs' tables *)
let gate_word (kind : Circuit.gate_kind) (ins : int array array) w =
  let x i = ins.(i).(w) in
  match kind with
  | Circuit.Const b -> if b then ones else 0
  | Circuit.Buf -> x 0
  | Circuit.Not -> lnot (x 0) land ones
  | Circuit.And -> x 0 land x 1
  | Circuit.Or -> x 0 lor x 1
  | Circuit.Xor -> x 0 lxor x 1
  | Circuit.Xnor -> lnot (x 0 lxor x 1) land ones
  | Circuit.Nand -> lnot (x 0 land x 1) land ones
  | Circuit.Nor -> lnot (x 0 lor x 1) land ones
  | Circuit.Mux -> (x 0 land x 2) lor (lnot (x 0) land x 1)
  | Circuit.Lut table ->
    let r = ref 0 in
    for b = 0 to 31 do
      let idx = ref 0 in
      Array.iteri (fun i v -> idx := !idx lor (((v.(w) lsr b) land 1) lsl i)) ins;
      if table.(!idx) then r := !r lor (1 lsl b)
    done;
    !r

(** The truth table of the cone rooted at [net] over [leaves] (leaf [i]
    is bit [i] of the table index). Each gate of the cone is evaluated
    once, over all [2^k] leaf patterns at a time. [memo] maps a net to
    its table words, [[||]] when not computed; the entries set here are
    cleared again before returning. *)
let truth_table gates producer memo (leaves : int array) (net : Circuit.net) :
    bool array =
  let size = 1 lsl Array.length leaves in
  let words = (size + 31) / 32 in
  let touched = ref [] in
  let set n v =
    memo.(n) <- v;
    touched := n :: !touched
  in
  Array.iteri (fun bit leaf -> set leaf (Array.init words (leaf_word bit))) leaves;
  let rec eval n =
    match memo.(n) with
    | [||] ->
      if producer.(n) < 0 then
        invalid_arg (Printf.sprintf "truth_table: net %d has no driver" n);
      let g : Circuit.gate = gates.(producer.(n)) in
      let ins = Array.map eval g.inputs in
      let v = Array.init words (gate_word g.kind ins) in
      set n v;
      v
    | v -> v
  in
  let v = eval net in
  List.iter (fun n -> memo.(n) <- [||]) !touched;
  Array.init size (fun idx -> (v.(idx / 32) lsr (idx mod 32)) land 1 = 1)

(** Per-net best cuts, minimal (area flow, depth), as indices into the
    returned store; -1 for a net no cut of at most [k] leaves covers.
    Area flow comes first because that is what fabric characterization
    wants: LUT count drives fabric size, while a level or two of extra
    depth is immaterial. *)
let enumerate_cuts ~k (c : Circuit.t) (gates : Circuit.gate array)
    (is_source : bool array) : store * int array =
  let nets = c.Circuit.next_net in
  let cuts = store ~k (8 * Array.length gates) in
  let best = Array.make nets (-1) in
  let aflow = Array.make nets 0.0 in
  (* a net's cut list: the [ncuts.(net)] cuts of [cuts] from
     [first.(net)]; a net no gate has covered yet is a leaf *)
  let first = Array.make nets (-1) and ncuts = Array.make nets 0 in
  let ensure net =
    if first.(net) < 0 then begin
      first.(net) <- push_leaf cuts net;
      ncuts.(net) <- 1
    end
  in
  Array.iteri (fun net src -> if src then ensure net) is_source;
  let max_fanin =
    Array.fold_left (fun m (g : Circuit.gate) -> Int.max m (Array.length g.inputs)) 0 gates
  in
  (* the union of the cuts chosen for the first [i] fanins, at [acc.(i*k)] *)
  let acc = Array.make ((max_fanin + 1) * k) 0 in
  let acc_len = Array.make (max_fanin + 1) 0 in
  let acc_sign = Array.make (max_fanin + 1) 0 in
  let acc_depth = Array.make (max_fanin + 1) 0 in
  let merged = store ~k (merge_cap + 1) in
  let rec combine (inputs : Circuit.net array) i =
    if i = Array.length inputs then begin
      if merged.size <= merge_cap then begin
        let m = push merged in
        let af = ref 1.0 in
        for t = 0 to acc_len.(i) - 1 do
          let leaf = acc.((i * k) + t) in
          merged.leaves.((m * k) + t) <- leaf;
          af := !af +. aflow.(leaf)
        done;
        merged.len.(m) <- acc_len.(i);
        merged.sign.(m) <- acc_sign.(i);
        merged.depth.(m) <- acc_depth.(i) + 1;
        merged.aflow.(m) <- !af
      end
    end
    else begin
      let net = inputs.(i) in
      let j = ref first.(net) and stop = first.(net) + ncuts.(net) in
      while !j < stop && merged.size <= merge_cap do
        let sign = acc_sign.(i) lor cuts.sign.(!j) in
        if popcount sign <= k then begin
          let len =
            merge k acc (i * k) acc_len.(i) cuts.leaves (!j * k) cuts.len.(!j)
              acc ((i + 1) * k)
          in
          if len >= 0 then begin
            acc_len.(i + 1) <- len;
            acc_sign.(i + 1) <- sign;
            acc_depth.(i + 1) <- Int.max acc_depth.(i) cuts.depth.(!j);
            combine inputs (i + 1)
          end
        end;
        incr j
      done
    end
  in
  (* the kept candidates, best first, as indices into one store *)
  let top = Array.make cut_limit 0 and top_n = ref 0 in
  let precedes st i j =
    let d1 = st.depth.(i) and d2 = st.depth.(j) in
    let a1 = st.aflow.(i) and a2 = st.aflow.(j) in
    a1 < a2 || (a1 = a2 && (d1 < d2 || (d1 = d2 && st.len.(i) < st.len.(j))))
  in
  (* cut [i] goes after every kept cut it does not strictly precede *)
  let offer st i =
    let p = ref !top_n in
    while !p > 0 && precedes st i top.(!p - 1) do decr p done;
    if !p < cut_limit then begin
      for q = Int.min !top_n (cut_limit - 1) downto !p + 1 do top.(q) <- top.(q - 1) done;
      top.(!p) <- i;
      if !top_n < cut_limit then incr top_n
    end
  in
  Array.iter
    (fun (g : Circuit.gate) ->
      let out = g.Circuit.output in
      Array.iter ensure g.Circuit.inputs;
      top_n := 0;
      let src =
        match g.Circuit.kind with
        | Circuit.Buf ->
          let net = g.Circuit.inputs.(0) in
          for j = first.(net) to first.(net) + ncuts.(net) - 1 do offer cuts j done;
          cuts
        | Circuit.Const _ | Circuit.Not | Circuit.And | Circuit.Or
        | Circuit.Xor | Circuit.Xnor | Circuit.Nand | Circuit.Nor
        | Circuit.Mux | Circuit.Lut _ ->
          merged.size <- 0;
          combine g.Circuit.inputs 0;
          for m = merged.size - 1 downto 0 do offer merged m done;
          merged
      in
      let n = !top_n in
      if n > 0 then aflow.(out) <- src.aflow.(top.(0));
      if not is_source.(out) then begin
        let start = cuts.size in
        for s = 0 to n - 1 do copy src top.(s) cuts done;
        (* the trivial cut lets parents treat this net as a leaf *)
        let t = push_leaf cuts out in
        cuts.depth.(t) <- (if n = 0 then 1 else cuts.depth.(start));
        cuts.aflow.(t) <- aflow.(out);
        first.(out) <- start;
        ncuts.(out) <- n + 1;
        if n > 0 then best.(out) <- start
      end)
    (Simulate.levelize c);
  (cuts, best)

(* The cover [map] ends with: a breadth-first pass from [c]'s roots
   that emits [lut net] for each demanded net and demands its leaves in
   order. A net is "covered" by a LUT whose function is its cone over
   the chosen leaves; primary inputs and DFF outputs need none. *)
let cover_luts (c : Circuit.t)
    ~(lut : Circuit.net -> (Circuit.net array * bool array) option) :
    Circuit.t * (Circuit.net * Circuit.net array * bool array) list =
  let is_source = Circuit.source_nets c in
  let required = Queue.create () in
  let visited = Array.make c.Circuit.next_net false in
  let demand net =
    if (not is_source.(net)) && not visited.(net) then begin
      visited.(net) <- true;
      Queue.add net required
    end
  in
  List.iter demand (root_nets c);
  let luts = ref [] in
  while not (Queue.is_empty required) do
    let net = Queue.pop required in
    Option.iter
      (fun (leaves, table) ->
        luts := (net, leaves, table) :: !luts;
        Array.iter demand leaves)
      (lut net)
  done;
  let mapped = Circuit.create (c.Circuit.name ^ "_lutmapped") in
  mapped.Circuit.next_net <- c.Circuit.next_net;
  mapped.Circuit.inputs <- c.Circuit.inputs;
  mapped.Circuit.outputs <- c.Circuit.outputs;
  mapped.Circuit.dffs <- c.Circuit.dffs;
  List.iter
    (fun (net, leaves, table) ->
      Circuit.add_gate_with_output mapped (Circuit.Lut table) leaves ~output:net)
    !luts;
  (mapped, !luts)

let cover c ~lut = fst (cover_luts c ~lut)

(** Map a circuit onto k-LUTs. Returns the mapped circuit (LUT gates
    only, same net ids) and the mapping description.

    Primary outputs and DFF D-pins whose cone is a pure buffer chain are
    rewired to the chain's source instead of costing an identity LUT —
    a pad or flip-flop input connects to the routing fabric directly.

    Raises [Invalid_argument] when [k < 2], or when a gate the cover
    needs has no cut of at most [k] leaves (a 3-input mux at [k = 2]). *)
let map ~k (c : Circuit.t) : Circuit.t * mapping =
  if k < 2 then
    invalid_arg (Printf.sprintf "Lutmap.map: k = %d, a LUT needs at least 2 inputs" k);
  let gates = Array.of_list (Circuit.gates_in_order c) in
  let producer = Circuit.driver_index c gates in
  let is_source = Circuit.source_nets c in
  let cuts, best = enumerate_cuts ~k c gates is_source in
  (* follow buffer chains back to a real driver *)
  let rec resolve_alias net =
    if is_source.(net) || producer.(net) < 0 then net
    else
      let g = gates.(producer.(net)) in
      match g.Circuit.kind with
      | Circuit.Buf -> resolve_alias g.Circuit.inputs.(0)
      | Circuit.Const _ | Circuit.Not | Circuit.And | Circuit.Or
      | Circuit.Xor | Circuit.Xnor | Circuit.Nand | Circuit.Nor
      | Circuit.Mux | Circuit.Lut _ -> net
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
  let memo = Array.make c.Circuit.next_net [||] in
  let lut net =
    let b = best.(net) in
    if b >= 0 && not (cuts.len.(b) = 1 && cuts.leaves.(b * k) = net) then begin
      let leaves = leaves_of cuts b in
      Some (leaves, truth_table gates producer memo leaves net)
    end
    else if producer.(net) < 0 then None
    else
      (* no combinational cut: constant driver, or a root aliasing a
         source through buffers *)
      let g = gates.(producer.(net)) in
      match g.Circuit.kind with
      | Circuit.Const b -> Some ([||], [| b |])
      | Circuit.Buf ->
        let src = [| g.Circuit.inputs.(0) |] in
        Some (src, truth_table gates producer memo src net)
      | Circuit.Not | Circuit.And | Circuit.Or | Circuit.Xor | Circuit.Xnor
      | Circuit.Nand | Circuit.Nor | Circuit.Mux | Circuit.Lut _ ->
        invalid_arg
          (Printf.sprintf "Lutmap.map: no cut of at most %d leaves covers the \
                           %d-input gate driving net %d"
             k (Array.length g.Circuit.inputs) net)
  in
  let mapped, luts = cover_luts c ~lut in
  ( mapped,
    { k;
      luts = List.map (fun (net, leaves, table) -> (net, Array.to_list leaves, table)) luts } )

let lut_count (m : mapping) = List.length m.luts

(** Depth in LUT levels of the mapped circuit. *)
let depth (mapped : Circuit.t) : int =
  let level = Array.make mapped.Circuit.next_net 0 in
  Array.fold_left
    (fun acc (g : Circuit.gate) ->
      let l =
        1 + Array.fold_left (fun m input -> Int.max m level.(input)) 0 g.inputs
      in
      level.(g.Circuit.output) <- l;
      Int.max acc l)
    0 (Simulate.levelize mapped)
