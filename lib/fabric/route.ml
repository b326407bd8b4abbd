(** Global-routing feasibility model.

    Each multi-terminal net contributes its half-perimeter wirelength,
    spread uniformly over the cells of its bounding box (the classical
    probabilistic congestion estimate: a route occupies roughly
    hpwl-many segments out of the w*h cells its box covers). A placement
    is routable when the most congested cell's expected track demand —
    split between the horizontal and vertical channels — stays within
    the fabric's per-channel track budget. *)

type report = {
  max_demand : int;          (* expected tracks at the hottest cell *)
  tracks_available : int;
  total_wirelength : float;
  routable : bool;
}

let route (p : Place.placement) : report =
  let w = p.fabric.Fabric.width in
  (* cell grid including the pad ring: indices 0 .. w+1 *)
  let demand = Array.make_matrix (w + 2) (w + 2) 0.0 in
  let total = ref 0.0 in
  Hashtbl.iter
    (fun _net b ->
      let minx = b.(0) and maxx = b.(1) and miny = b.(2) and maxy = b.(3) in
      (* a net at one position needs no wire *)
      if minx < maxx || miny < maxy then begin
        let hpwl = float_of_int (Place.net_hpwl b) in
        total := !total +. hpwl;
        let cells = float_of_int ((maxx - minx + 1) * (maxy - miny + 1)) in
        let per_cell = hpwl /. cells in
        let cl v = max 0 (min (w + 1) (v + 1)) in
        for x = cl minx to cl maxx do
          for y = cl miny to cl maxy do
            demand.(x).(y) <- demand.(x).(y) +. per_cell
          done
        done
      end)
    (Place.net_boxes p);
  let max_demand = ref 0.0 in
  Array.iter
    (Array.iter (fun d -> if d > !max_demand then max_demand := d))
    demand;
  (* a cell's demand is served by one horizontal and one vertical channel *)
  let per_channel = int_of_float (Float.ceil (!max_demand /. 2.0)) in
  let tracks = Fabric.channel_tracks p.fabric in
  { max_demand = per_channel; tracks_available = tracks;
    total_wirelength = !total; routable = per_channel <= tracks }
