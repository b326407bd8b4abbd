(** Packing and placement of a LUT-mapped circuit onto a fabric grid.

    Packing pairs each DFF with the LUT driving its D input (the usual
    logic-element pairing) and then clusters logic elements into CLBs
    greedily by connectivity. Placement drops clusters onto the grid in
    a space-filling order and improves the half-perimeter wirelength with
    a pass of pairwise-swap hill climbing.

    Swaps are evaluated incrementally, and each decision is the one a
    full recomputation would make. A net's HPWL is an integer, so a
    swap's delta is exact (a float sum of these would be exact too), and
    [wirelength] is [float_of_int] of the integer total. A net on both
    swapped CLBs keeps its set of positions, so it is skipped; every
    other net on either is scored once, with the moved CLB's new position
    substituted, and nothing moves until a swap is accepted. The pairs,
    the round limit and the acceptance test ([d < 0]) are those of a
    full recomputation. On a 2-vCPU VM, the
    211 final placements of the perf benchmark's redact deck take
    0.089 s. Three variants were measured on a prototype over the same
    corpus and dropped: bounding boxes with edge counts as in VPR
    (0.113 s: nets span ~3 CLBs, too few to pay for the bookkeeping),
    per-pin boxes of a net's other terminals (0.077 s, with an O(k^2)
    refresh on each accept) and separable x/y cost tables for the outer
    CLB (~0.070 s, but a second evaluator of ~50 lines). *)

module Circuit = Alice_netlist.Circuit
type logic_element = {
  le_lut : Circuit.net option;   (* output net of the LUT, if any *)
  le_ff : Circuit.net option;    (* Q net of the paired DFF, if any *)
  le_inputs : Circuit.net list;  (* nets read by this element *)
}

type clb = { les : logic_element list }

type placement = {
  fabric : Fabric.t;
  clbs : (clb * (int * int)) list;      (* cluster, grid position *)
  io_sites : (Circuit.net * (int * int)) list;  (* port bit -> pad position *)
  wirelength : float;                   (* total HPWL in tile units *)
}

(** Structured payload for fit failures: which fabric width was
    attempted, which resource ran out, and by how much — so that
    diagnostics can say *which* size failed and at what utilization,
    not just that sizing failed. *)
type fit_failure = {
  fit_width : int;                          (* attempted fabric width *)
  fit_resource : [ `Clb | `Io | `Utilization ];
  fit_needed : int;
  fit_available : int;
  fit_utilization : float;                  (* needed / available *)
}

let fit_failure ~width ~resource ~needed ~available =
  { fit_width = width; fit_resource = resource; fit_needed = needed;
    fit_available = available;
    fit_utilization =
      (if available <= 0 then Float.infinity
       else float_of_int needed /. float_of_int available) }

let resource_to_string = function
  | `Clb -> "CLBs"
  | `Io -> "I/O bits"
  | `Utilization -> "CLB utilization"

let fit_failure_to_string (fe : fit_failure) : string =
  Printf.sprintf "%dx%d fabric: %d %s needed, %d available (%.0f%% demand)"
    fe.fit_width fe.fit_width fe.fit_needed
    (resource_to_string fe.fit_resource)
    fe.fit_available (100.0 *. fe.fit_utilization)

exception Does_not_fit of fit_failure

(* ---------- packing ---------- *)

let build_elements (c : Circuit.t) : logic_element list =
  let luts =
    List.filter_map
      (fun (g : Circuit.gate) ->
        match g.kind with
        | Circuit.Lut _ -> Some (g.output, Array.to_list g.inputs)
        | Circuit.Const _ | Circuit.Buf | Circuit.Not | Circuit.And
        | Circuit.Or | Circuit.Xor | Circuit.Xnor | Circuit.Nand
        | Circuit.Nor | Circuit.Mux -> None)
      (Circuit.gates_in_order c)
  in
  let dffs = Circuit.dff_list c in
  (* pair DFFs with the LUT driving D *)
  let lut_by_output = Hashtbl.create 64 in
  List.iter (fun (out, ins) -> Hashtbl.replace lut_by_output out ins) luts;
  let paired = Hashtbl.create 64 in
  let ff_elements =
    List.filter_map
      (fun (d : Circuit.dff) ->
        match Hashtbl.find_opt lut_by_output d.d with
        | Some ins when not (Hashtbl.mem paired d.d) ->
          Hashtbl.replace paired d.d ();
          Some { le_lut = Some d.d; le_ff = Some d.q; le_inputs = ins }
        | Some _ | None ->
          Some { le_lut = None; le_ff = Some d.q; le_inputs = [ d.d ] })
      dffs
  in
  let lut_elements =
    List.filter_map
      (fun (out, ins) ->
        if Hashtbl.mem paired out then None
        else Some { le_lut = Some out; le_ff = None; le_inputs = ins })
      luts
  in
  ff_elements @ lut_elements

let element_nets (le : logic_element) : Circuit.net list =
  let outs =
    List.filter_map Fun.id [ le.le_lut; le.le_ff ]
  in
  outs @ le.le_inputs

(* Dense net ids 0, 1, 2, ... in order of first sight: the table and the
   numbering function. *)
let dense_ids () =
  let ids = Hashtbl.create 256 in
  let id_of net =
    match Hashtbl.find_opt ids net with
    | Some id -> id
    | None ->
      let id = Hashtbl.length ids in
      Hashtbl.add ids net id;
      id
  in
  (ids, id_of)

(** Greedy connectivity-driven packing into CLBs of [luts_per_clb]
    elements. Each slot takes the unused element with the most net pins
    (counted once per pin) already on the cluster's nets — the lowest
    index on ties, and the lowest unused index when nothing shares a
    net. Scores are kept per element and raised only for the readers and
    drivers of a net as it joins the cluster, so each slot scans just
    the elements sharing a net with it. Raises [Invalid_argument] when
    [luts_per_clb < 1]. *)
let pack (arch : Arch.t) (c : Circuit.t) : clb list =
  let capacity = arch.Arch.luts_per_clb in
  if capacity < 1 then invalid_arg "Place.pack: luts_per_clb must be at least 1";
  let elements = Array.of_list (build_elements c) in
  let n = Array.length elements in
  let ids, id_of = dense_ids () in
  let nets_of = Array.map (fun le -> List.map id_of (element_nets le)) elements in
  (* net -> the elements on it, once per pin *)
  let users = Array.make (Hashtbl.length ids) [] in
  for i = n - 1 downto 0 do
    List.iter (fun id -> users.(id) <- i :: users.(id)) nets_of.(i)
  done;
  let cluster_of_net = Array.make (Hashtbl.length ids) (-1) in
  let score = Array.make n 0 in
  let used = Array.make n false in
  let first_unused = ref 0 in
  let next_unused () =
    while !first_unused < n && used.(!first_unused) do incr first_unused done;
    if !first_unused < n then Some !first_unused else None
  in
  let rec build cid clusters =
    match next_unused () with
    | None -> List.rev clusters
    | Some seed ->
      let scored = ref [] in
      let add i =
        used.(i) <- true;
        List.iter
          (fun id ->
            if cluster_of_net.(id) <> cid then begin
              cluster_of_net.(id) <- cid;
              List.iter
                (fun e ->
                  if score.(e) = 0 then scored := e :: !scored;
                  score.(e) <- score.(e) + 1)
                users.(id)
            end)
          nets_of.(i)
      in
      add seed;
      let pick () =
        let best =
          List.fold_left
            (fun best e ->
              if used.(e) then best
              else if best < 0 || score.(e) > score.(best)
                      || (score.(e) = score.(best) && e < best)
              then e
              else best)
            (-1) !scored
        in
        if best >= 0 then Some best else next_unused ()
      in
      (* members, most recent first *)
      let rec fill members size =
        if size >= capacity then members
        else
          match pick () with
          | None -> members
          | Some i ->
            add i;
            fill (i :: members) (size + 1)
      in
      let members = fill [ seed ] 1 in
      List.iter (fun e -> score.(e) <- 0) !scored;
      build (cid + 1) ({ les = List.map (fun i -> elements.(i)) members } :: clusters)
  in
  build 0 []

(* ---------- placement ---------- *)

(* grid positions in a diagonal space-filling order from the corner *)
let grid_order w =
  let cells = ref [] in
  for s = 0 to 2 * (w - 1) do
    for x = 0 to w - 1 do
      let y = s - x in
      if y >= 0 && y < w then cells := (x, y) :: !cells
    done
  done;
  List.rev !cells

(** Place already-packed clusters onto the fabric. Raises {!Does_not_fit}
    when there are more CLBs than grid sites or more I/O bits than pads.

    Nets get dense ids; each keeps the CLBs touching it and the bounding
    box of its pads, which never move, so a net's half-perimeter
    wirelength is one pass over its CLBs. Each net's HPWL is cached as an
    integer; the hill climb scores a candidate swap without making it
    (see [delta]), and only an accepted swap writes positions and cached
    HPWLs. *)
let place_packed (fabric : Fabric.t) (c : Circuit.t) (clusters : clb list) :
    placement =
  let w = fabric.Fabric.width in
  let n = List.length clusters in
  if n > Fabric.clb_count fabric then
    raise (Does_not_fit
             (fit_failure ~width:w ~resource:`Clb ~needed:n
                ~available:(Fabric.clb_count fabric)));
  (* I/O bits on the top (y = w) and bottom (y = -1) pad rows *)
  let io_bits =
    List.concat_map (fun (_, nets) -> Array.to_list nets) c.Circuit.inputs
    @ List.concat_map (fun (_, nets) -> Array.to_list nets) c.Circuit.outputs
  in
  if List.length io_bits > Fabric.io_capacity fabric then
    raise (Does_not_fit
             (fit_failure ~width:w ~resource:`Io
                ~needed:(List.length io_bits)
                ~available:(Fabric.io_capacity fabric)));
  let gpio = fabric.Fabric.arch.Arch.gpio_per_tile in
  let io_sites =
    List.mapi
      (fun i net ->
        let tile = i / gpio in
        let pos =
          if tile < w then (tile, -1)  (* bottom row *)
          else (tile - w, w)           (* top row *)
        in
        (net, pos))
      io_bits
  in
  let clusters = Array.of_list clusters in
  let order = Array.of_list (grid_order w) in
  let xs = Array.init n (fun i -> fst order.(i)) in
  let ys = Array.init n (fun i -> snd order.(i)) in
  let ids, id_of = dense_ids () in
  let clb_pins =
    Array.map (fun cl -> List.map id_of (List.concat_map element_nets cl.les)) clusters
  in
  let io_ids = List.map (fun (net, pos) -> (id_of net, pos)) io_sites in
  let nets = Hashtbl.length ids in
  (* CLB -> its distinct nets; net -> the CLBs touching it *)
  let seen = Array.make nets (-1) in
  let clb_nets =
    Array.mapi
      (fun i pins ->
        Array.of_list
          (List.filter
             (fun id ->
               if seen.(id) = i then false
               else (seen.(id) <- i; true))
             pins))
      clb_pins
  in
  let owners = Array.make nets [] in
  for i = n - 1 downto 0 do
    Array.iter (fun id -> owners.(id) <- i :: owners.(id)) clb_nets.(i)
  done;
  let owners = Array.map Array.of_list owners in
  let pad_x0 = Array.make nets max_int and pad_x1 = Array.make nets min_int in
  let pad_y0 = Array.make nets max_int and pad_y1 = Array.make nets min_int in
  List.iter
    (fun (id, (x, y)) ->
      pad_x0.(id) <- min pad_x0.(id) x;
      pad_x1.(id) <- max pad_x1.(id) x;
      pad_y0.(id) <- min pad_y0.(id) y;
      pad_y1.(id) <- max pad_y1.(id) y)
    io_ids;
  (* HPWL of net [id] with CLB [m] at ([mx], [my]) instead of its own
     position; [m = -1] scores the net where it lies. Every net has a
     CLB or a pad. *)
  let score id m mx my =
    let x0 = ref pad_x0.(id) and x1 = ref pad_x1.(id) in
    let y0 = ref pad_y0.(id) and y1 = ref pad_y1.(id) in
    let os = owners.(id) in
    for k = 0 to Array.length os - 1 do
      let o = os.(k) in
      let x = if o = m then mx else xs.(o) and y = if o = m then my else ys.(o) in
      if x < !x0 then x0 := x;
      if x > !x1 then x1 := x;
      if y < !y0 then y0 := y;
      if y > !y1 then y1 := y
    done;
    !x1 - !x0 + !y1 - !y0
  in
  let hpwl = Array.init nets (fun id -> score id (-1) 0 0) in
  let cost = ref (Array.fold_left ( + ) 0 hpwl) in
  (* The exact wirelength change of swapping CLBs [i] and [j], without
     moving them. A net on both keeps its set of positions, so only the
     nets on one of the two are scored, each once, with the other CLB's
     position substituted; their new HPWLs wait in [pending_hpwl] for
     [commit]. [stamp] marks [i]'s nets with [e], and those on [j] too
     with [e + 1]. *)
  let stamp = Array.make nets (-1) and epoch = ref 0 in
  let pending_id = Array.make nets 0 and pending_hpwl = Array.make nets 0 in
  let n_pending = ref 0 in
  (* score net [id] with CLB [m] moved, keep its new HPWL pending and
     return the change *)
  let moved id m mx my =
    let h = score id m mx my in
    pending_id.(!n_pending) <- id;
    pending_hpwl.(!n_pending) <- h;
    incr n_pending;
    h - hpwl.(id)
  in
  let delta i j =
    epoch := !epoch + 2;
    let e = !epoch in
    n_pending := 0;
    let d = ref 0 in
    let ni = clb_nets.(i) and nj = clb_nets.(j) in
    for k = 0 to Array.length ni - 1 do stamp.(ni.(k)) <- e done;
    for k = 0 to Array.length nj - 1 do
      let id = nj.(k) in
      if stamp.(id) = e then stamp.(id) <- e + 1 else d := !d + moved id j xs.(i) ys.(i)
    done;
    for k = 0 to Array.length ni - 1 do
      let id = ni.(k) in
      if stamp.(id) = e then d := !d + moved id i xs.(j) ys.(j)
    done;
    !d
  in
  let commit i j d =
    for t = 0 to !n_pending - 1 do hpwl.(pending_id.(t)) <- pending_hpwl.(t) done;
    let x = xs.(i) and y = ys.(i) in
    xs.(i) <- xs.(j);
    ys.(i) <- ys.(j);
    xs.(j) <- x;
    ys.(j) <- y;
    cost := !cost + d
  in
  (* pairwise-swap hill climbing *)
  let improved = ref (n > 1) in
  let rounds = ref 0 in
  let max_rounds = if n <= 40 then 3 else 1 in
  while !improved && !rounds < max_rounds do
    improved := false;
    incr rounds;
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let d = delta i j in
        if d < 0 then begin
          commit i j d;
          improved := true
        end
      done
    done
  done;
  { fabric;
    clbs = List.init n (fun i -> (clusters.(i), (xs.(i), ys.(i))));
    io_sites;
    wirelength = float_of_int !cost }

(* net -> its bounding box [| minx; maxx; miny; maxy |], keyed in order
   of first sight so that sums over the table run in a fixed order *)
let net_boxes (p : placement) : (Circuit.net, int array) Hashtbl.t =
  let boxes = Hashtbl.create 256 in
  let touch net (x, y) =
    match Hashtbl.find_opt boxes net with
    | None -> Hashtbl.add boxes net [| x; x; y; y |]
    | Some b ->
      if x < b.(0) then b.(0) <- x;
      if x > b.(1) then b.(1) <- x;
      if y < b.(2) then b.(2) <- y;
      if y > b.(3) then b.(3) <- y
  in
  List.iter
    (fun (cluster, pos) ->
      List.iter
        (fun le -> List.iter (fun net -> touch net pos) (element_nets le))
        cluster.les)
    p.clbs;
  List.iter (fun (net, pos) -> touch net pos) p.io_sites;
  boxes

let net_hpwl (b : int array) : int = b.(1) - b.(0) + b.(3) - b.(2)

(** Pack then place; see {!pack} and {!place_packed}. *)
let place (fabric : Fabric.t) (c : Circuit.t) : placement =
  place_packed fabric c (pack fabric.Fabric.arch c)
