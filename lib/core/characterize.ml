(** CreateEFPGA (Algorithm 3, lines 2-7): characterize each candidate
    cluster by actually building its eFPGA — synthesize the cluster's
    top, map it onto k-LUTs, and search the minimum feasible fabric.

    Multi-module clusters get a synthetic top that instantiates every
    member with all ports exposed, exactly the "top Verilog module that
    instantiates all independent modules" of Section 6. Results are
    cached by the cluster's identity — its member modules in cluster
    order, each tagged with a digest of its elaborated subtree, which is
    all the synthetic top reads — plus a digest of every configuration
    field a characterization stage reads
    ({!Alice_config.Flow_config.classify}): a hit is always the
    cluster's own netlist, however long the cache lives.

    A miss is computed in four stages, each memoized in memory in the
    cache and keyed by its parent stage's key plus exactly the inputs it
    reads: the synthesized netlist (the identity), the LUT-mapped
    circuit (+ k), the packed CLBs (+ LUTs and FFs per CLB) and one
    width's placement and routing (+ GPIO per tile, the width).
    Grid points that differ only downstream of a stage share it: a new
    utilization target or width window re-runs no synthesis, mapping or
    packing, and places no width an earlier point already placed.

    Each module is synthesized and mapped once per cache: a member's
    piece is the netlist and mapped stages of its one-member identity,
    and a multi-member cluster's mapped circuit is spliced from its
    members' pieces ({!splice}), equal to mapping its whole netlist.

    Characterizations are independent of each other (the paper's
    per-cluster OpenFPGA fan-out), so {!run_all_stats} deduplicates the
    candidate set by cache key up front, characterizes each unique
    identity once across a pool of worker domains
    ({!Alice_parallel.Memo.resolve}), and fans the results back out to
    every aliasing cluster in the original order — output is
    bit-identical to the serial flow for any [jobs] value. *)

module V = Alice_verilog
module N = Alice_netlist
module F = Alice_fabric
module C = Alice_config
module D = Alice_diag.Diag
module Memo = Alice_parallel.Memo
module Timebase = Alice_diag.Timebase

(** How characterizing one cluster ended. [Implemented] is a feasible
    fabric; [Infeasible] is the expected "no permitted fabric works"
    outcome of the size search; [Failed] is a fault — an exception that
    escaped synthesis, mapping or the search — captured as a diagnostic
    so one broken cluster cannot abort the whole flow; [Skipped] is a
    cache miss whose task started after the characterization deadline:
    a budget decision, not a fault, carried as a [W0701] warning. *)
type outcome =
  | Implemented of F.Size_search.implementation
  | Infeasible of F.Size_search.failure
  | Failed of D.t
  | Skipped of D.t

type characterization = {
  cluster : Clustering.cluster;
  outcome : outcome;
  mapped : N.Circuit.t option;  (* the LUT-mapped cluster, for security work *)
}

(* the synthetic top's name, and so the cluster circuit's *)
let top_name = "efpga_cluster"

(* member [i]'s port [port] on the synthetic top *)
let top_port i port = Printf.sprintf "m%d_%s" i port

(* Build a synthetic elaborated module instantiating member i as u<i>,
   its ports promoted to top-level ports named m<i>_<port>. *)
let wrapper_emodule (design : V.Elaborate.design) (members : V.Design.tree list)
    : V.Elaborate.emodule =
  let ports = ref [] and nets = ref [] and instances = ref [] in
  List.iteri
    (fun i (member : V.Design.tree) ->
      let em = V.Elaborate.find_emodule design member.module_name in
      let bindings =
        List.map
          (fun (p : V.Elaborate.eport) ->
            let name = top_port i p.pname in
            ports := { p with V.Elaborate.pname = name } :: !ports;
            nets :=
              { V.Elaborate.nname = name; nwidth = p.width;
                nkind = V.Ast.Wire }
              :: !nets;
            (p.pname, Some (V.Ast.Ident name)))
          em.V.Elaborate.em_ports
      in
      instances :=
        { V.Elaborate.ei_name = Printf.sprintf "u%d" i;
          ei_module = member.module_name;
          ei_orig_module = em.V.Elaborate.em_orig_name;
          ei_bindings = bindings; ei_loc = V.Loc.none }
        :: !instances)
    members;
  { V.Elaborate.em_name = top_name; em_orig_name = top_name;
    em_ports = List.rev !ports; em_nets = List.rev !nets; em_assigns = [];
    em_always = []; em_instances = List.rev !instances; em_params = [] }

let members_netlist (design : V.Elaborate.design) (members : V.Design.tree list)
    : N.Circuit.t =
  N.Synth.synthesize
    { V.Elaborate.d_top = top_name;
      d_modules =
        V.Elaborate.Smap.add top_name (wrapper_emodule design members)
          design.V.Elaborate.d_modules }

(** Synthesize the gate-level circuit of a cluster's synthetic top. *)
let cluster_netlist (design : V.Elaborate.design) (cluster : Clustering.cluster)
    : N.Circuit.t =
  members_netlist design cluster.Clustering.members

(** Synthesize and LUT-map the circuit a cluster would put on a fabric,
    the whole cluster at once. *)
let cluster_circuit (design : V.Elaborate.design) (cfg : C.Flow_config.t)
    (cluster : Clustering.cluster) : N.Circuit.t =
  N.Lutmap.map ~k:cfg.C.Flow_config.lut_inputs (cluster_netlist design cluster)

(* The nets [Synth.synthesize] declares for one instance of [name]: one
   per bit of each of its nets, then its instances' in order. *)
let rec declared_bits (design : V.Elaborate.design) (name : string) : int =
  let em = V.Elaborate.find_emodule design name in
  List.fold_left
    (fun n (e : V.Elaborate.enet) -> n + e.V.Elaborate.nwidth)
    0 em.V.Elaborate.em_nets
  + List.fold_left
      (fun n (i : V.Elaborate.einstance) -> n + declared_bits design i.ei_module)
      0 em.V.Elaborate.em_instances

(* [splice design members pieces] is the whole cluster's mapped circuit,
   [Lutmap.map] of [members_netlist design members], built from each
   member's piece: the netlist and mapped circuit of the member alone.

   [Synth.synthesize] numbers the synthetic top's nets in four blocks,
   each in member order: T, the top's port nets; S, each member's
   declared nets; P, the primary inputs; G, each member's gate outputs.
   The constant-0 and constant-1 nets are allocated at their first use
   anywhere, so a member whose constant an earlier member already
   allocated reuses that net, and its later G nets move down by one. A
   member alone allocates the same blocks with the same sizes, so its
   piece relocates block by block. A member's logic reads only its own
   nets and the constants, and no best cut holds a constant, so each
   net's LUT is its piece's, relocated; one [Lutmap.cover] pass over the
   cluster's roots emits them in the whole mapping's order. Leaves and
   truth tables are fresh arrays per LUT, as the whole mapping's are. *)
let splice (design : V.Elaborate.design) (members : V.Design.tree list)
    (pieces : (N.Circuit.t * N.Circuit.t) list) : N.Circuit.t =
  (* each member's T, S and P block sizes *)
  let sizes =
    List.map2
      (fun (m : V.Design.tree) ((netlist : N.Circuit.t), _) ->
        ( N.Circuit.io_bit_count netlist,
          declared_bits design m.module_name,
          N.Circuit.input_bit_count netlist ))
      members pieces
  in
  let total f = List.fold_left (fun n size -> n + f size) 0 sizes in
  let all_t = total (fun (t, _, _) -> t) and all_s = total (fun (_, s, _) -> s) in
  let next_t = ref 0 and next_s = ref all_t and next_p = ref (all_t + all_s) in
  let next_g = ref (all_t + all_s + total (fun (_, _, p) -> p)) in
  let zero = ref None and one = ref None in
  (* a member's piece net -> the cluster's net *)
  let relocation (t, s, p) ((netlist : N.Circuit.t), _) : int array =
    let r = Array.make netlist.N.Circuit.next_net 0 in
    let block first size next =
      for x = 0 to size - 1 do r.(first + x) <- !next + x done;
      next := !next + size
    in
    block 0 t next_t;
    block t s next_s;
    block (t + s) p next_p;
    let g0 = t + s + p in
    let constants =
      List.filter_map
        (fun (g : N.Circuit.gate) ->
          match g.kind with
          | N.Circuit.Const b when g.output >= g0 ->
            Some (g.output, if b then one else zero)
          | N.Circuit.Const _ | N.Circuit.Buf | N.Circuit.Not | N.Circuit.And
          | N.Circuit.Or | N.Circuit.Xor | N.Circuit.Xnor | N.Circuit.Nand
          | N.Circuit.Nor | N.Circuit.Mux | N.Circuit.Lut _ -> None)
        netlist.N.Circuit.gates
    in
    for x = g0 to netlist.N.Circuit.next_net - 1 do
      match List.assoc_opt x constants with
      | Some { contents = Some shared } -> r.(x) <- shared
      | constant ->
        r.(x) <- !next_g;
        Option.iter (fun c -> c := Some !next_g) constant;
        incr next_g
    done;
    r
  in
  let relocated = List.map2 (fun size piece -> (relocation size piece, snd piece)) sizes pieces in
  let luts = Array.make !next_g None in
  let move r nets = Array.map (fun n -> r.(n)) nets in
  List.iter
    (fun (r, (mapped : N.Circuit.t)) ->
      List.iter
        (fun (g : N.Circuit.gate) ->
          match g.kind with
          | N.Circuit.Lut table ->
            luts.(r.(g.output)) <- Some (move r g.inputs, Array.copy table)
          | N.Circuit.Const _ | N.Circuit.Buf | N.Circuit.Not | N.Circuit.And
          | N.Circuit.Or | N.Circuit.Xor | N.Circuit.Xnor | N.Circuit.Nand
          | N.Circuit.Nor | N.Circuit.Mux -> ())
        mapped.N.Circuit.gates)
    relocated;
  (* a piece's port [m0_<port>] as member [i]'s *)
  let ports i r =
    List.map (fun (name, nets) ->
        (top_port i (String.sub name 3 (String.length name - 3)), move r nets))
  in
  let c = N.Circuit.create top_name in
  c.N.Circuit.next_net <- !next_g;
  c.N.Circuit.inputs <-
    List.concat (List.mapi (fun i (r, (m : N.Circuit.t)) -> ports i r m.inputs) relocated);
  c.N.Circuit.outputs <-
    List.concat (List.mapi (fun i (r, (m : N.Circuit.t)) -> ports i r m.outputs) relocated);
  (* newest first: the last member's flip-flops lead *)
  c.N.Circuit.dffs <-
    List.concat_map
      (fun (r, (m : N.Circuit.t)) ->
        List.map (fun (d : N.Circuit.dff) -> { N.Circuit.d = r.(d.d); q = r.(d.q) }) m.dffs)
      (List.rev relocated);
  N.Lutmap.cover c ~lut:(fun net -> luts.(net))

(* What [Flow] builds before characterization, for one source and
   front-end configuration. All of it is immutable, so one value is
   shared by every request and domain that hits it. *)
type front = {
  ast : V.Ast.design;
  design : V.Elaborate.design;
  filtering : Filtering.result;
  clusters : Clustering.cluster list;
  diags : D.t list;
}

(* The final table and the in-memory stages. A stage is looked up with
   [Memo.find_or_compute], no [Pool] dispatch, so a characterization
   stays one pool task however many stages it looks up. *)
type cache = {
  final : (string, characterization) Memo.t;
  netlists : (string, N.Circuit.t) Memo.t;
  mapped_circuits : (string, N.Circuit.t) Memo.t;
  packed : (string, F.Place.clb list) Memo.t;
  placed : (string, F.Place.placement * F.Route.report) Memo.t;
  fronts : (string, front) Memo.t;
}

let create_cache ?load ?save () : cache =
  { final = Memo.create ?load ?save (); netlists = Memo.create ();
    mapped_circuits = Memo.create (); packed = Memo.create ();
    placed = Memo.create (); fronts = Memo.create () }

let front_stage (c : cache) ~(key : string) (compute : unit -> front) : front =
  Memo.find_or_compute c.fronts key compute

type stage_stats = { stage : string; stage_hits : int; stage_computed : int }

let stage_stats (c : cache) : stage_stats list =
  let count name memo =
    let stage_hits, stage_computed = Memo.counts memo in
    { stage = name; stage_hits; stage_computed }
  in
  [ count "netlist" c.netlists; count "mapped" c.mapped_circuits;
    count "packed" c.packed; count "placed" c.placed; count "front" c.fronts ]

type stats = {
  clusters : int;
  unique : int;
  cache_hits : int;
  computed : int;
  skipped : int;
}

let empty_stats =
  { clusters = 0; unique = 0; cache_hits = 0; computed = 0; skipped = 0 }

(* A Merkle digest of a module's elaborated subtree, because the
   cluster netlist synthesizes the whole subtree: the module's own
   content with instance locations stripped, plus its children's
   digests. A child edit therefore rekeys every ancestor, while a line
   shift or a file rename, which only move [ei_loc], rekey nothing.
   The digest is identical across processes, and two same-named modules
   with different bodies (e.g. from different designs sharing one
   persistent store) never collide. Memoized per design. *)
let subtree_digester (design : V.Elaborate.design) : string -> string =
  let mdigests : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let rec digest_of name =
    match Hashtbl.find_opt mdigests name with
    | Some d -> d
    | None ->
      let em = V.Elaborate.find_emodule design name in
      let em_instances =
        List.map
          (fun (i : V.Elaborate.einstance) -> { i with ei_loc = V.Loc.none })
          em.V.Elaborate.em_instances
      in
      let children =
        List.map
          (fun (i : V.Elaborate.einstance) -> digest_of i.ei_module)
          em_instances
      in
      let d = Memo.digest ({ em with em_instances }, children) in
      Hashtbl.add mdigests name d;
      d
  in
  digest_of

(* [v6]: the stored implementation dropped the fields read back from
   its mapped circuit, placement and fabric ([v5] dropped [lut_depth]
   and [ff_path]; [v4] started the final key from the ordered
   [identity], not the member multiset) *)
type config_keys = {
  cfg_final : string;
  cfg_mapped : string;
  cfg_packed : string;
  cfg_placed : string;
}

let config_keys (cfg : C.Flow_config.t) : config_keys =
  let fields = C.Flow_config.classify cfg in
  let digest tag stages = C.Flow_config.digest tag stages fields in
  { cfg_final = digest "v6" C.Flow_config.characterization;
    cfg_mapped = digest "mapped" [ C.Flow_config.Mapped ];
    cfg_packed = digest "packed" [ C.Flow_config.Packed ];
    cfg_placed = digest "placed" [ C.Flow_config.Placed ] }

(* A cluster's identity, the netlist stage's key and the start of
   every other: its members' ids [module@digest] in cluster order, a
   one-member identity each. Ordered, since member [i]'s ports are the
   fabric's GPIO group [i]; no instance names, since [wrapper_emodule]
   reads none. *)
let member_ids (digest_of : string -> string) (cluster : Clustering.cluster)
    : string list =
  List.map
    (fun (m : V.Design.tree) -> m.module_name ^ "@" ^ digest_of m.module_name)
    cluster.Clustering.members

let identity (ids : string list) : string = String.concat "|" ids

let keyer (design : V.Elaborate.design) (cfg : C.Flow_config.t) :
    Clustering.cluster -> string =
  let digest_of = subtree_digester design in
  let final = (config_keys cfg).cfg_final in
  fun cluster -> identity (member_ids digest_of cluster) ^ "#" ^ final

(* a short human label for diagnostics: the cluster's member instances *)
let cluster_label (cluster : Clustering.cluster) : string =
  cluster.Clustering.members
  |> List.map (fun (m : V.Design.tree) -> m.inst_name)
  |> String.concat "+"

(** Classify an exception that escaped one cluster's characterization.
    Layer exceptions get their layer's code; everything else falls back
    to {!D.of_exn}. The cluster's member instances always ride along as
    context so an aggregated report stays attributable. *)
let diag_of_cluster_exn (cluster : Clustering.cluster) (e : exn) : D.t =
  let context = [ ("cluster", cluster_label cluster) ] in
  match e with
  | N.Synth.Synthesis_error msg ->
    D.error ~context ~code:"E0201" "synthesis failed: %s" msg
  | N.Simulate.Combinational_cycle msg ->
    D.error ~context ~code:"E0202" "combinational cycle: %s" msg
  | F.Place.Does_not_fit fe ->
    D.error ~context ~code:"E0301" "placement failed: %s"
      (F.Place.fit_failure_to_string fe)
  | V.Loc.Error (loc, msg) -> D.error ~loc ~context ~code:"E0100" "%s" msg
  | e -> { (D.of_exn e) with D.context = context }

let skip_diag ~(deadline_s : float) (cluster : Clustering.cluster) : D.t =
  D.warning ~context:[ ("cluster", cluster_label cluster) ] ~code:"W0701"
    "characterization deadline (%.1fs) exceeded; cluster skipped" deadline_s

(* Fan a shared characterization back out to an aliasing cluster. The
   fabric result is identical by construction (same identity), but a
   diagnostic must name *this* cluster's instances, not the ones of
   whichever alias computed first. *)
let retarget (cluster : Clustering.cluster) (c : characterization) :
    characterization =
  let relabel (d : D.t) : D.t =
    let label = cluster_label cluster in
    let context =
      if List.mem_assoc "cluster" d.D.context then
        List.map
          (fun (k, v) -> if k = "cluster" then (k, label) else (k, v))
          d.D.context
      else ("cluster", label) :: d.D.context
    in
    { d with D.context }
  in
  let outcome =
    match c.outcome with
    | (Implemented _ | Infeasible _) as o -> o
    | Failed d -> Failed (relabel d)
    | Skipped d -> Skipped (relabel d)
  in
  { c with cluster; outcome }

(* Characterize one cluster through the stages of [stages] ([ids] are
   its members' identities). A one-member cluster is its member's piece:
   its netlist, then its mapped circuit. A larger one splices its
   mapped circuit from its members' pieces, unless one of them raises:
   then it is synthesized and mapped whole, so its fault reads as the
   whole cluster's. Any exception escaping synthesis, LUT mapping or
   the size search — except [Out_of_memory], which is not safely
   resumable — becomes a [Failed] outcome carrying a diagnostic, so a
   single broken cluster degrades to one lost candidate instead of
   aborting the run. *)
let compute (stages : cache) (design : V.Elaborate.design)
    (cfg : C.Flow_config.t) (keys : config_keys)
    ((ids, cluster) : string list * Clustering.cluster) : characterization =
  let k = cfg.C.Flow_config.lut_inputs in
  let nkey = identity ids in
  let mkey = nkey ^ "#" ^ keys.cfg_mapped in
  let piece id member =
    let netlist =
      Memo.find_or_compute stages.netlists id (fun () ->
          members_netlist design [ member ])
    in
    ( netlist,
      Memo.find_or_compute stages.mapped_circuits (id ^ "#" ^ keys.cfg_mapped)
        (fun () -> N.Lutmap.map ~k netlist) )
  in
  match
    match (ids, cluster.Clustering.members) with
    | [ id ], [ member ] -> snd (piece id member)
    | _, members ->
      Memo.find_or_compute stages.mapped_circuits mkey (fun () ->
          match List.map2 piece ids members with
          | pieces -> splice design members pieces
          | exception Out_of_memory -> raise Out_of_memory
          | exception _ ->
            let netlist =
              Memo.find_or_compute stages.netlists nkey (fun () ->
                  cluster_netlist design cluster)
            in
            N.Lutmap.map ~k netlist)
  with
  | exception Out_of_memory -> raise Out_of_memory
  | exception e ->
    { cluster; outcome = Failed (diag_of_cluster_exn cluster e); mapped = None }
  | mapped -> (
    (* k, the CLB shape and the GPIO count are every field
       [Arch.of_config] sets, and its routing-track constants are
       fixed: the placed key determines the placement's arch *)
    let arch = F.Arch.of_config cfg in
    let pkey = mkey ^ "#" ^ keys.cfg_packed in
    let place_route clbs w =
      Memo.find_or_compute stages.placed
        (Printf.sprintf "%s#%s,w=%d" pkey keys.cfg_placed w)
        (fun () -> F.Size_search.place_route arch mapped clbs w)
    in
    match
      F.Size_search.search arch
        ~min_size:cfg.C.Flow_config.min_fabric_size
        ~max_size:cfg.C.Flow_config.max_fabric_size
        ~target_utilization:cfg.C.Flow_config.target_utilization
        ~pack:(fun () ->
          Memo.find_or_compute stages.packed pkey (fun () -> F.Place.pack arch mapped))
        ~place_route mapped
    with
    | exception Out_of_memory -> raise Out_of_memory
    | exception e ->
      { cluster; outcome = Failed (diag_of_cluster_exn cluster e);
        mapped = Some mapped }
    | Ok impl -> { cluster; outcome = Implemented impl; mapped = Some mapped }
    | Error f -> { cluster; outcome = Infeasible f; mapped = Some mapped })

let run_all_stats ?deadline_s ?(jobs = 1) ?(cache : cache option)
    (design : V.Elaborate.design) (cfg : C.Flow_config.t)
    (clusters : Clustering.cluster list) : characterization list * stats =
  let cache = match cache with Some c -> c | None -> create_cache () in
  let t0 = Timebase.now_s () in
  let keep c =
    match c.outcome with
    | Implemented _ | Infeasible _ -> true
    | Failed _ | Skipped _ -> false
  in
  (* [compute] catches everything but [Out_of_memory] itself; a raised
     task is a safety net so an unexpected escape still costs one
     candidate *)
  let recover (_, cluster) e =
    { cluster; outcome = Failed (diag_of_cluster_exn cluster e); mapped = None }
  in
  (* every identity up front, serially: the digest table is not shared
     with the worker domains *)
  let digest_of = subtree_digester design in
  let keys = config_keys cfg in
  (* a miss whose task starts past the deadline is skipped; [keep]
     rejects the skip, so a later run computes the key *)
  let task ((_, cluster) as x) =
    match deadline_s with
    | Some limit when Timebase.elapsed_since t0 > limit ->
      { cluster; outcome = Skipped (skip_diag ~deadline_s:limit cluster);
        mapped = None }
    | Some _ | None -> compute cache design cfg keys x
  in
  let r =
    Memo.resolve ~jobs ~keep ~recover cache.final task
      (List.map
         (fun cluster ->
           let ids = member_ids digest_of cluster in
           (identity ids ^ "#" ^ keys.cfg_final, (ids, cluster)))
         clusters)
  in
  let skipped =
    List.length
      (List.filter
         (fun (_, c) ->
           match c.outcome with
           | Skipped _ -> true
           | Implemented _ | Infeasible _ | Failed _ -> false)
         r.Memo.uniques)
  in
  ( List.map2 retarget clusters r.Memo.values,
    { clusters = List.length clusters; unique = List.length r.Memo.uniques;
      cache_hits = r.Memo.hits; computed = r.Memo.computed - skipped;
      skipped } )
