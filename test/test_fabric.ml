(* Fabric model: capacities, sizing search, placement/routing invariants,
   bitstream accounting, area model. *)

module V = Alice_verilog
module N = Alice_netlist
module F = Alice_fabric

let arch = F.Arch.default

let test_capacities () =
  let f = F.Fabric.make arch 4 in
  Alcotest.(check int) "clbs" 16 (F.Fabric.clb_count f);
  Alcotest.(check int) "luts" 64 (F.Fabric.lut_capacity f);
  Alcotest.(check int) "ffs" 64 (F.Fabric.ff_capacity f);
  Alcotest.(check int) "4x4 exposes 64 pins (paper)" 64 (F.Fabric.io_capacity f);
  Alcotest.(check string) "label" "4x4" (F.Fabric.size_label f);
  let f5 = F.Fabric.make arch 5 in
  Alcotest.(check int) "5x5 pins" 80 (F.Fabric.io_capacity f5)

let mapped_of src =
  let c = N.Synth.synthesize (V.Elaborate.elaborate (V.Parser.parse src)) in
  N.Lutmap.map ~k:4 c

let small_design =
  {|module m (input clk, input rst, input [7:0] a, input [7:0] b, output reg [7:0] q);
    always @(posedge clk or negedge rst) begin
      if (!rst) q <= 8'h0;
      else q <= (a & b) + (a ^ b);
    end
  endmodule|}

(* ---------- differential oracle: the original list-based kernels ----------

   A test-only copy of the first packing, placement and size-search
   implementation: O(n^2) list scans, one [pack] per width, every width
   that fits placed before its utilization is checked. The product
   kernels must return structurally equal results. *)
module Ref = struct
  open F.Place

  let build_elements (c : N.Circuit.t) : logic_element list =
    let luts =
      List.filter_map
        (fun (g : N.Circuit.gate) ->
          match g.kind with
          | N.Circuit.Lut _ -> Some (g.output, Array.to_list g.inputs)
          | _ -> None)
        (N.Circuit.gates_in_order c)
    in
    let lut_by_output = Hashtbl.create 64 in
    List.iter (fun (out, ins) -> Hashtbl.replace lut_by_output out ins) luts;
    let paired = Hashtbl.create 64 in
    let ff_elements =
      List.map
        (fun (d : N.Circuit.dff) ->
          match Hashtbl.find_opt lut_by_output d.d with
          | Some ins when not (Hashtbl.mem paired d.d) ->
            Hashtbl.replace paired d.d ();
            { le_lut = Some d.d; le_ff = Some d.q; le_inputs = ins }
          | Some _ | None -> { le_lut = None; le_ff = Some d.q; le_inputs = [ d.d ] })
        (N.Circuit.dff_list c)
    in
    ff_elements
    @ List.filter_map
        (fun (out, ins) ->
          if Hashtbl.mem paired out then None
          else Some { le_lut = Some out; le_ff = None; le_inputs = ins })
        luts

  let pack (arch : F.Arch.t) (c : N.Circuit.t) : clb list =
    let elements = Array.of_list (build_elements c) in
    let n = Array.length elements in
    let used = Array.make n false in
    let nets_of = Array.map element_nets elements in
    let shares_with cluster_nets i =
      List.fold_left
        (fun acc net -> if List.mem net cluster_nets then acc + 1 else acc)
        0 nets_of.(i)
    in
    let clusters = ref [] in
    let rec next_seed i =
      if i >= n then None else if used.(i) then next_seed (i + 1) else Some i
    in
    let rec build () =
      match next_seed 0 with
      | None -> ()
      | Some seed ->
        used.(seed) <- true;
        let members = ref [ seed ] in
        let cluster_nets = ref nets_of.(seed) in
        while
          List.length !members < arch.F.Arch.luts_per_clb
          && (let best = ref (-1) and best_score = ref (-1) in
              for i = 0 to n - 1 do
                if not used.(i) then begin
                  let s = shares_with !cluster_nets i in
                  if s > !best_score then begin
                    best_score := s;
                    best := i
                  end
                end
              done;
              !best >= 0
              && begin
                used.(!best) <- true;
                members := !best :: !members;
                cluster_nets := nets_of.(!best) @ !cluster_nets;
                true
              end)
        do () done;
        clusters := { les = List.map (fun i -> elements.(i)) !members } :: !clusters;
        build ()
    in
    build ();
    List.rev !clusters

  let hpwl = function
    | [] -> 0.0
    | (x0, y0) :: rest ->
      let minx, maxx, miny, maxy =
        List.fold_left
          (fun (a, b, c, d) (x, y) -> (min a x, max b x, min c y, max d y))
          (x0, x0, y0, y0) rest
      in
      float_of_int (maxx - minx + maxy - miny)

  let total_wirelength clbs io_sites =
    let t = Hashtbl.create 256 in
    let touch net pos =
      Hashtbl.replace t net (pos :: Option.value (Hashtbl.find_opt t net) ~default:[])
    in
    Array.iter
      (fun (cl, pos) ->
        List.iter (fun le -> List.iter (fun net -> touch net pos) (element_nets le)) cl.les)
      clbs;
    List.iter (fun (net, pos) -> touch net pos) io_sites;
    Hashtbl.fold (fun _ ps acc -> acc +. hpwl ps) t 0.0

  (* the original [place], minus the capacity checks [Size_search] made
     through it (see [try_width]) *)
  let place (fabric : F.Fabric.t) c clusters =
    let w = fabric.F.Fabric.width in
    let io_bits =
      List.concat_map (fun (_, nets) -> Array.to_list nets) c.N.Circuit.inputs
      @ List.concat_map (fun (_, nets) -> Array.to_list nets) c.N.Circuit.outputs
    in
    let gpio = fabric.F.Fabric.arch.F.Arch.gpio_per_tile in
    let io_sites =
      List.mapi
        (fun i net ->
          let tile = i / gpio in
          (net, if tile < w then (tile, -1) else (tile - w, w)))
        io_bits
    in
    let order = ref [] in
    for s = 0 to 2 * (w - 1) do
      for x = 0 to w - 1 do
        let y = s - x in
        if y >= 0 && y < w then order := (x, y) :: !order
      done
    done;
    let order = List.rev !order in
    let clbs = Array.of_list (List.mapi (fun i cl -> (cl, List.nth order i)) clusters) in
    let n = Array.length clbs in
    let clb_nets =
      Array.map
        (fun (cl, _) -> List.sort_uniq compare (List.concat_map element_nets cl.les))
        clbs
    in
    let owner = Hashtbl.create 256 and io_of = Hashtbl.create 64 in
    let push t k v = Hashtbl.replace t k (v :: Option.value (Hashtbl.find_opt t k) ~default:[]) in
    Array.iteri (fun i nets -> List.iter (fun net -> push owner net i) nets) clb_nets;
    List.iter (fun (net, pos) -> push io_of net pos) io_sites;
    let positions_of_net net =
      List.map (fun i -> snd clbs.(i)) (Option.value (Hashtbl.find_opt owner net) ~default:[])
      @ Option.value (Hashtbl.find_opt io_of net) ~default:[]
    in
    let net_cost nets = List.fold_left (fun acc net -> acc +. hpwl (positions_of_net net)) 0.0 nets in
    let try_swap i j =
      let touched = List.sort_uniq compare (clb_nets.(i) @ clb_nets.(j)) in
      let before = net_cost touched in
      let ci, pi = clbs.(i) and cj, pj = clbs.(j) in
      clbs.(i) <- (ci, pj);
      clbs.(j) <- (cj, pi);
      let undo () =
        clbs.(i) <- (ci, pi);
        clbs.(j) <- (cj, pj)
      in
      (net_cost touched -. before, undo)
    in
    let cost = ref (total_wirelength clbs io_sites) in
    let improved = ref (n > 1) and rounds = ref 0 in
    let max_rounds = if n <= 40 then 3 else 1 in
    while !improved && !rounds < max_rounds do
      improved := false;
      incr rounds;
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let delta, undo = try_swap i j in
          if delta < 0.0 then begin
            cost := !cost +. delta;
            improved := true
          end
          else undo ()
        done
      done
    done;
    { fabric; clbs = Array.to_list clbs; io_sites; wirelength = !cost }

  (* the original walk: pack and check capacity at every width, place,
     then check utilization *)
  let minimum arch ~min_size ~max_size ~target_utilization mapped =
    let try_width w =
      let fabric = F.Fabric.make arch w in
      let clusters = pack arch mapped in
      let io = N.Circuit.io_bit_count mapped in
      let no_fit resource needed available =
        Error (`No_fit (fit_failure ~width:w ~resource ~needed ~available))
      in
      if List.length clusters > F.Fabric.clb_count fabric then
        no_fit `Clb (List.length clusters) (F.Fabric.clb_count fabric)
      else if io > F.Fabric.io_capacity fabric then
        no_fit `Io io (F.Fabric.io_capacity fabric)
      else begin
        let placement = place fabric mapped clusters in
        let clbs_used = List.length placement.clbs in
        let clb_cap = F.Fabric.clb_count fabric in
        let budget = F.Size_search.clb_budget ~target_utilization ~clb_cap in
        if clbs_used > budget then no_fit `Utilization clbs_used budget
        else
          let routing = F.Route.route placement in
          if not routing.F.Route.routable then
            Error
              (`No_route
                 { F.Size_search.cg_width = w; cg_demand = routing.F.Route.max_demand;
                   cg_tracks = routing.F.Route.tracks_available })
          else
            Ok
              { F.Size_search.fabric; placement;
                io_util = float_of_int io /. float_of_int (F.Fabric.io_capacity fabric);
                clb_util = float_of_int clbs_used /. float_of_int clb_cap }
      end
    in
    let rec search w last_no_route last_no_fit =
      if w > max_size then
        match (last_no_route, last_no_fit) with
        | Some cg, _ -> Error (F.Size_search.Unroutable cg)
        | None, Some fe -> Error (F.Size_search.Too_large fe)
        | None, None ->
          Error
            (F.Size_search.Too_large
               (fit_failure ~width:max_size ~resource:`Clb ~needed:0 ~available:0))
      else
        match try_width w with
        | Ok impl -> Ok impl
        | Error (`No_fit fe) -> search (w + 1) last_no_route (Some fe)
        | Error (`No_route cg) -> search (w + 1) (Some cg) last_no_fit
    in
    if N.Circuit.io_bit_count mapped = 0 then Error F.Size_search.Empty_circuit
    else search (max 1 min_size) None None
end

(* A seeded random sequential circuit, LUT-mapped: gates read earlier
   nets, primary inputs and flip-flop outputs, so there is no
   combinational loop. *)
let random_mapped ~k seed =
  let st = Random.State.make [| 0xfab; seed |] in
  let c = N.Circuit.create (Printf.sprintf "rnd%d" seed) in
  let pool = ref (Array.to_list (N.Circuit.add_input c "a" (1 + Random.State.int st 12))) in
  let qs = List.init (Random.State.int st 10) (fun _ -> N.Circuit.fresh_net c) in
  pool := !pool @ qs;
  let pick () = List.nth !pool (Random.State.int st (List.length !pool)) in
  let kinds = N.Circuit.[| And; Or; Xor; Xnor; Nand; Nor; Not; Buf; Mux |] in
  for _ = 1 to Random.State.int st 80 do
    let kind = kinds.(Random.State.int st (Array.length kinds)) in
    let arity = match kind with N.Circuit.Not | N.Circuit.Buf -> 1 | N.Circuit.Mux -> 3 | _ -> 2 in
    pool := N.Circuit.add_gate c kind (Array.init arity (fun _ -> pick ())) :: !pool
  done;
  List.iter (fun q -> N.Circuit.add_dff_q c ~d:(pick ()) ~q) qs;
  N.Circuit.set_output c "y" (Array.init (1 + Random.State.int st 16) (fun _ -> pick ()));
  N.Lutmap.map ~k c

(* every distinct LUT-mapped cluster the flows of the benchmarks [names]
   characterize under [configs] *)
let mapped_clusters names configs =
  let module B = Alice_benchmarks.Suite in
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun name ->
      let b = Option.get (B.find name) in
      List.concat_map
        (fun config ->
          let flow =
            Alice.Flow.run_request
              (Alice.Flow.request ~config
                 (Alice.Flow.Text { text = b.B.source; file = None }))
          in
          List.filter_map
            (fun (ch : Alice.Characterize.characterization) ->
              match ch.mapped with
              | Some m when not (Hashtbl.mem seen (Marshal.to_string m [])) ->
                Hashtbl.add seen (Marshal.to_string m []) ();
                Some (F.Arch.of_config config, m)
              | _ -> None)
            flow.Alice.Flow.characterized)
        (configs b))
    names

let benchmark_clusters =
  lazy
    (let module B = Alice_benchmarks.Suite in
     mapped_clusters
       [ "GCD"; "SASC"; "USB_PHY"; "FIR"; "IIR"; "SHA256" ]
       (fun b -> [ B.config1 b; B.config2 b ]))

(* SoC clusters that pack into more than 40 CLBs, where placement takes
   a single round and nets span many CLBs *)
let large_clusters =
  lazy
    (let module B = Alice_benchmarks.Suite in
     List.filter
       (fun (arch, mapped) -> List.length (F.Place.pack arch mapped) > 40)
       (mapped_clusters [ "SOC" ] (fun b -> [ B.config1 b ])))

let differential_circuits () =
  List.init 40 (fun seed ->
      let arch =
        { arch with F.Arch.luts_per_clb = 2 + (seed mod 4); gpio_per_tile = 2 + (seed mod 7) }
      in
      (arch, random_mapped ~k:(3 + (seed mod 4)) seed))
  @ Lazy.force benchmark_clusters

let windows = [ (1, 3); (2, 14); (3, 3); (5, 4) ]
let utilizations = [ 0.3; 0.6; 1.0 ]

(* pack, then place at the smallest width with room for every CLB and
   I/O bit: both must equal the reference *)
let check_pack_place (arch, mapped) =
  let clusters = F.Place.pack arch mapped in
  if clusters <> Ref.pack arch mapped then Alcotest.fail "pack differs from the reference";
  let n = List.length clusters in
  let w =
    max (int_of_float (Float.ceil (sqrt (float_of_int n))))
      (F.Size_search.min_width_for_io arch ~min_size:1
         ~io_bits:(N.Circuit.io_bit_count mapped))
  in
  let fabric = F.Fabric.make arch w in
  if F.Place.place_packed fabric mapped clusters <> Ref.place fabric mapped clusters
  then Alcotest.failf "place_packed differs from the reference (%d CLBs)" n

let test_differential_pack_place () =
  List.iter check_pack_place (differential_circuits ())

let test_differential_large_placement () =
  let large = Lazy.force large_clusters in
  Alcotest.(check bool) "some SoC cluster above 40 CLBs" true (large <> []);
  List.iter check_pack_place large

let test_differential_size_search () =
  List.iter
    (fun (arch, mapped) ->
      List.iter
        (fun (min_size, max_size) ->
          List.iter
            (fun target_utilization ->
              let got =
                F.Size_search.minimum arch ~min_size ~max_size ~target_utilization mapped
              and want = Ref.minimum arch ~min_size ~max_size ~target_utilization mapped in
              if got <> want then
                Alcotest.failf "minimum %d..%d at %.1f: %s, reference %s" min_size max_size
                  target_utilization
                  (match got with Ok _ -> "ok" | Error f -> F.Size_search.failure_to_string f)
                  (match want with Ok _ -> "ok" | Error f -> F.Size_search.failure_to_string f))
            utilizations)
        windows)
    (differential_circuits ())

let test_packing () =
  let mapped = mapped_of small_design in
  let clbs = F.Place.pack arch mapped in
  let elements = List.fold_left (fun acc c -> acc + List.length c.F.Place.les) 0 clbs in
  Alcotest.(check bool) "every CLB within capacity" true
    (List.for_all (fun c -> List.length c.F.Place.les <= arch.F.Arch.luts_per_clb) clbs);
  (* every LUT and FF appears exactly once *)
  let luts = N.Circuit.lut_count mapped and ffs = N.Circuit.dff_count mapped in
  let lut_slots =
    List.concat_map (fun c -> c.F.Place.les) clbs
    |> List.filter (fun le -> le.F.Place.le_lut <> None)
    |> List.length
  and ff_slots =
    List.concat_map (fun c -> c.F.Place.les) clbs
    |> List.filter (fun le -> le.F.Place.le_ff <> None)
    |> List.length
  in
  Alcotest.(check int) "all luts packed" luts lut_slots;
  Alcotest.(check int) "all ffs packed" ffs ff_slots;
  Alcotest.(check bool) "element count sane" true (elements >= max luts ffs)

let test_pack_rejects_empty_clbs () =
  let mapped = mapped_of small_design in
  List.iter
    (fun luts_per_clb ->
      match F.Place.pack { arch with F.Arch.luts_per_clb } mapped with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "pack accepted luts_per_clb = %d" luts_per_clb)
    [ 0; -1 ];
  Alcotest.(check int) "one element per CLB"
    (List.length (Ref.build_elements mapped))
    (List.length (F.Place.pack { arch with F.Arch.luts_per_clb = 1 } mapped))

let test_placement_invariants () =
  let mapped = mapped_of small_design in
  let fabric = F.Fabric.make arch 5 in
  let p = F.Place.place fabric mapped in
  (* all positions distinct and on the grid *)
  let positions = List.map snd p.F.Place.clbs in
  Alcotest.(check int) "distinct positions"
    (List.length positions)
    (List.length (List.sort_uniq compare positions));
  Alcotest.(check bool) "positions on grid" true
    (List.for_all (fun (x, y) -> x >= 0 && x < 5 && y >= 0 && y < 5) positions);
  Alcotest.(check bool) "io sites on pad ring" true
    (List.for_all (fun (_, (_, y)) -> y = -1 || y = 5) p.F.Place.io_sites);
  Alcotest.(check bool) "wirelength positive" true (p.F.Place.wirelength > 0.0)

let test_does_not_fit () =
  let mapped = mapped_of small_design in
  (match F.Place.place (F.Fabric.make arch 1) mapped with
  | exception F.Place.Does_not_fit _ -> ()
  | _ -> Alcotest.fail "expected Does_not_fit on a 1x1 fabric")

let test_size_search () =
  let mapped = mapped_of small_design in
  match F.Size_search.minimum arch ~min_size:2 ~max_size:20 ~target_utilization:0.5 mapped with
  | Error f -> Alcotest.fail (F.Size_search.failure_to_string f)
  | Ok impl ->
    let w = impl.F.Size_search.fabric.F.Fabric.width in
    Alcotest.(check bool) "width positive" true (w >= 2);
    Alcotest.(check bool) "utilization under target" true
      (impl.F.Size_search.clb_util <= 0.5 +. 1e-9);
    Alcotest.(check bool) "io fits" true
      (N.Circuit.io_bit_count mapped
       <= F.Fabric.io_capacity impl.F.Size_search.fabric);
    (* minimality: one size down must fail at same constraints *)
    (match
       F.Size_search.minimum arch ~min_size:2 ~max_size:(w - 1)
         ~target_utilization:0.5 mapped
     with
    | Error _ -> ()
    | Ok smaller ->
      Alcotest.fail
        (Printf.sprintf "smaller fabric %s accepted below reported minimum"
           (F.Fabric.size_label smaller.F.Size_search.fabric)))

let test_size_search_failures () =
  let mapped = mapped_of small_design in
  (match F.Size_search.minimum arch ~min_size:2 ~max_size:2 ~target_utilization:0.5 mapped with
  | Error (F.Size_search.Too_large _ | F.Size_search.Unroutable _) -> ()
  | Error f -> Alcotest.fail ("unexpected failure: " ^ F.Size_search.failure_to_string f)
  | Ok _ -> Alcotest.fail "expected failure on max_size 2")

let test_clb_budget_boundary () =
  (* the integer CLB budget shared by the feasibility comparison and the
     fit-failure payload: exactly the target is feasible, one more CLB
     is not, and the two sides can never disagree *)
  Alcotest.(check int) "exact half of 12" 6
    (F.Size_search.clb_budget ~target_utilization:0.5 ~clb_cap:12);
  Alcotest.(check int) "0.6 of 10 is exactly 6" 6
    (F.Size_search.clb_budget ~target_utilization:0.6 ~clb_cap:10);
  Alcotest.(check int) "just under: 0.59 of 10 floors to 5" 5
    (F.Size_search.clb_budget ~target_utilization:0.59 ~clb_cap:10);
  List.iter
    (fun (t, cap) ->
      let b = F.Size_search.clb_budget ~target_utilization:t ~clb_cap:cap in
      (* a placement of exactly the budget passes the (float) test the
         search enforces; one more CLB fails it *)
      Alcotest.(check bool) "budget itself is feasible" true
        (float_of_int b <= t *. float_of_int cap);
      Alcotest.(check bool) "budget + 1 is infeasible" true
        (float_of_int (b + 1) > t *. float_of_int cap))
    [ (0.5, 12); (0.6, 10); (0.7, 10); (0.3, 7); (1.0, 16); (0.25, 4) ];
  (* end-to-end: a utilization fit failure reports exactly the budget
     the comparison enforced at the failing width *)
  let mapped = mapped_of small_design in
  match
    F.Size_search.minimum arch ~min_size:4 ~max_size:4
      ~target_utilization:0.01 mapped
  with
  | Ok impl ->
    Alcotest.fail
      (Printf.sprintf "1%%-utilization target accepted %s"
         (F.Fabric.size_label impl.F.Size_search.fabric))
  | Error (F.Size_search.Too_large fe) ->
    Alcotest.(check bool) "failure is the utilization test" true
      (fe.F.Place.fit_resource = `Utilization);
    Alcotest.(check int) "payload matches the enforced budget"
      (F.Size_search.clb_budget ~target_utilization:0.01
         ~clb_cap:(F.Fabric.clb_count (F.Fabric.make arch fe.F.Place.fit_width)))
      fe.F.Place.fit_available
  | Error f ->
    Alcotest.fail ("unexpected failure: " ^ F.Size_search.failure_to_string f)

(* Failure payloads the count-first walk builds without placing must
   read exactly as the reference walk's, at every way a walk can end. *)
let test_failure_payloads () =
  let small = mapped_of small_design in
  let wide_io =
    mapped_of
      {|module m (input [47:0] a, output [1:0] y);
        assign y = {^a[23:0], ^a[47:24]};
      endmodule|}
  in
  let no_tracks = { arch with F.Arch.routing_tracks_base = 0; routing_tracks_slope = 0.0 } in
  let resource_of = function
    | Error (F.Size_search.Too_large fe) -> Some fe.F.Place.fit_resource
    | _ -> None
  in
  List.iter
    (fun (label, arch, mapped, min_size, max_size, target_utilization, expect) ->
      let got = F.Size_search.minimum arch ~min_size ~max_size ~target_utilization mapped
      and want = Ref.minimum arch ~min_size ~max_size ~target_utilization mapped in
      let text = function
        | Ok _ -> "implemented"
        | Error f -> F.Size_search.failure_to_string f
      in
      Alcotest.(check string) label (text want) (text got);
      Alcotest.(check bool) (label ^ ": ends as expected") true (expect got))
    [ ("clb at max", arch, small, 1, 1, 1.0, fun r -> resource_of r = Some `Clb);
      (* at 0.3 the utilization test fails too: [`Io] must win *)
      ("io at max", arch, wide_io, 1, 2, 0.3, fun r -> resource_of r = Some `Io);
      ("utilization at max", arch, small, 2, 4, 0.01, fun r -> resource_of r = Some `Utilization);
      ("unroutable", no_tracks, small, 2, 6, 1.0,
       (function Error (F.Size_search.Unroutable _) -> true | _ -> false));
      ("min above max", arch, small, 5, 3, 1.0,
       fun r -> resource_of r = Some `Clb) ]

let test_bitstream () =
  let f4 = F.Fabric.make arch 4 and f5 = F.Fabric.make arch 5 in
  let l4 = F.Bitstream.layout f4 and l5 = F.Bitstream.layout f5 in
  Alcotest.(check int) "lut bits 4x4" (16 * 4 * 16) l4.F.Bitstream.lut_bits;
  Alcotest.(check bool) "bigger fabric, longer bitstream" true
    (l5.F.Bitstream.total_bits > l4.F.Bitstream.total_bits);
  Alcotest.(check int) "total is the sum" l4.F.Bitstream.total_bits
    (l4.F.Bitstream.lut_bits + l4.F.Bitstream.clb_routing_bits
     + l4.F.Bitstream.switchbox_bits + l4.F.Bitstream.io_bits);
  (* generated bitstream embeds the LUT tables *)
  let mapped = mapped_of small_design in
  match F.Size_search.minimum arch ~min_size:2 ~max_size:20 ~target_utilization:0.5 mapped with
  | Error _ -> Alcotest.fail "no fabric"
  | Ok impl ->
    let bits = F.Bitstream.generate impl.F.Size_search.placement mapped in
    Alcotest.(check int) "bitstream length matches layout"
      (F.Bitstream.length impl.F.Size_search.fabric)
      (Array.length bits);
    let set = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bits in
    Alcotest.(check bool) "some configuration bits set" true (set > 0)

let test_area_model () =
  let f4 = F.Fabric.make arch 4 and f5 = F.Fabric.make arch 5 in
  let a4 = F.Area.fabric_area f4 and a5 = F.Area.fabric_area f5 in
  Alcotest.(check bool) "bigger fabric, bigger area" true (a5 > a4);
  Alcotest.(check bool) "4x4 in the tens of thousands of um2" true
    (a4 > 10_000.0 && a4 < 60_000.0);
  let total = F.Area.solution_area ~asic_gates:1000 [ f4; f4 ] in
  Alcotest.(check (float 1.0)) "solution area sums"
    ((2.0 *. a4) +. F.Area.asic_area ~gates:1000)
    total

let test_routing_report () =
  let mapped = mapped_of small_design in
  let p = F.Place.place (F.Fabric.make arch 6) mapped in
  let r = F.Route.route p in
  Alcotest.(check bool) "wirelength accumulated" true (r.F.Route.total_wirelength > 0.0);
  Alcotest.(check bool) "routable on a roomy fabric" true r.F.Route.routable

let test_emit () =
  let fabric = F.Fabric.make arch 4 in
  let text = F.Emit.opaque_wrapper ~name:"efpga_0" ~fabric ~gpio_in:10 ~gpio_out:6 in
  (* the opaque wrapper must parse with our own frontend *)
  let d = V.Parser.parse text in
  Alcotest.(check int) "one module" 1 (List.length d.V.Ast.modules);
  let prog =
    F.Emit.programmed_wrapper ~name:"efpga_0" ~fabric ~gpio_in:4 ~gpio_out:4
      ~members:
        [ { F.Emit.member_module = "sub"; member_instance = "u1"; member_params = [];
            in_ports = [ ("a", 4) ]; out_ports = [ ("y", 4) ] } ]
  in
  let d2 = V.Parser.parse prog in
  Alcotest.(check int) "programmed parses" 1 (List.length d2.V.Ast.modules)

let test_timing () =
  let mapped = mapped_of small_design in
  let p = F.Place.place (F.Fabric.make arch 5) mapped in
  let t = F.Timing.estimate p mapped in
  Alcotest.(check bool) "positive critical path" true (t.F.Timing.critical_path_ns > 0.0);
  Alcotest.(check bool) "levels consistent with mapping" true
    (t.F.Timing.logic_levels >= 1
     && t.F.Timing.logic_levels <= Alice_netlist.Lutmap.depth mapped + 1);
  (* wire delay makes the fabric slower than a zero-wire lower bound *)
  let lower = 0.25 *. float_of_int t.F.Timing.logic_levels in
  Alcotest.(check bool) "wire delay adds" true (t.F.Timing.critical_path_ns >= lower);
  Alcotest.(check bool) "asic reference positive" true
    (F.Timing.asic_reference_ns mapped > 0.0)

let test_power () =
  let mapped = mapped_of small_design in
  let r = F.Power.estimate ~vectors:64 mapped in
  Alcotest.(check bool) "activity positive" true (r.F.Power.toggles_per_cycle > 0.0);
  Alcotest.(check bool) "weighted >= raw" true
    (r.F.Power.weighted_activity >= r.F.Power.toggles_per_cycle);
  (* determinism under a fixed seed *)
  let r2 = F.Power.estimate ~vectors:64 mapped in
  Alcotest.(check (float 1e-9)) "deterministic" r.F.Power.weighted_activity
    r2.F.Power.weighted_activity;
  (* placed wirelength weighting can only increase the figure *)
  let p = F.Place.place (F.Fabric.make arch 5) mapped in
  let placed =
    F.Power.estimate ~vectors:64 ~wirelength_of:(F.Power.placed_wirelength p) mapped
  in
  Alcotest.(check bool) "placement weighting increases activity" true
    (placed.F.Power.weighted_activity >= r.F.Power.weighted_activity)

let tests =
  [ Alcotest.test_case "capacities" `Quick test_capacities;
    Alcotest.test_case "packing" `Quick test_packing;
    Alcotest.test_case "pack rejects empty clbs" `Quick test_pack_rejects_empty_clbs;
    Alcotest.test_case "placement invariants" `Quick test_placement_invariants;
    Alcotest.test_case "does not fit" `Quick test_does_not_fit;
    Alcotest.test_case "size search" `Quick test_size_search;
    Alcotest.test_case "size search failures" `Quick test_size_search_failures;
    Alcotest.test_case "clb budget boundary" `Quick test_clb_budget_boundary;
    Alcotest.test_case "bitstream" `Quick test_bitstream;
    Alcotest.test_case "area model" `Quick test_area_model;
    Alcotest.test_case "routing report" `Quick test_routing_report;
    Alcotest.test_case "emit wrappers" `Quick test_emit;
    Alcotest.test_case "timing estimate" `Quick test_timing;
    Alcotest.test_case "power estimate" `Quick test_power;
    Alcotest.test_case "differential pack and place" `Quick test_differential_pack_place;
    Alcotest.test_case "differential large placement" `Quick test_differential_large_placement;
    Alcotest.test_case "differential size search" `Quick test_differential_size_search;
    Alcotest.test_case "failure payloads" `Quick test_failure_payloads ]
