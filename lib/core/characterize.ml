(** CreateEFPGA (Algorithm 3, lines 2-7): characterize each candidate
    cluster by actually building its eFPGA — synthesize the cluster's
    top, map it onto k-LUTs, and search the minimum feasible fabric.

    Multi-module clusters get a synthetic top that instantiates every
    member with all ports exposed, exactly the "top Verilog module that
    instantiates all independent modules" of Section 6. Results are
    cached by the multiset of member modules, each tagged with a digest
    of its elaborated subtree, plus a digest of every configuration
    field that can change the outcome
    ({!Alice_config.Flow_config.characterize_digest}) — so two clusters
    of the same module mix always get the same fabric, and the key
    stays sound when the cache outlives one run or one configuration.

    A miss is computed in four stages, each memoized in memory in the
    cache and keyed by its parent stage's key plus exactly the inputs it
    reads: the synthesized netlist (the ordered members as
    [wrapper_emodule] reads them, with their subtree digests), the
    LUT-mapped circuit (+ k), the packed CLBs (+ LUTs and FFs per CLB)
    and one width's placement and routing (+ GPIO per tile, the width).
    Grid points that differ only downstream of a stage share it: a new
    utilization target or width window re-runs no synthesis, mapping or
    packing, and places no width an earlier point already placed.

    Characterizations are independent of each other (the paper's
    per-cluster OpenFPGA fan-out), so {!run_all_stats} deduplicates the
    candidate set by cache key up front, characterizes each unique
    module multiset once across a pool of worker domains
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
    cluster never dispatched because the characterization deadline
    passed: a budget decision, not a fault, carried as a [W0701]
    warning. *)
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

(* Build a synthetic elaborated module instantiating the cluster members
   with all ports promoted to top-level ports named m<i>_<port>. *)
let wrapper_emodule (design : V.Elaborate.design) (cluster : Clustering.cluster)
    ~(name : string) : V.Elaborate.emodule =
  let ports = ref [] and nets = ref [] and instances = ref [] in
  List.iteri
    (fun i (member : V.Design.tree) ->
      let em = V.Elaborate.find_emodule design member.module_name in
      let bindings =
        List.map
          (fun (p : V.Elaborate.eport) ->
            let top_name = Printf.sprintf "m%d_%s" i p.pname in
            ports := { p with V.Elaborate.pname = top_name } :: !ports;
            nets :=
              { V.Elaborate.nname = top_name; nwidth = p.width;
                nkind = V.Ast.Wire }
              :: !nets;
            (p.pname, Some (V.Ast.Ident top_name)))
          em.V.Elaborate.em_ports
      in
      instances :=
        { V.Elaborate.ei_name = Printf.sprintf "u%d_%s" i member.inst_name;
          ei_module = member.module_name;
          ei_orig_module = member.orig_module_name;
          ei_bindings = bindings; ei_loc = V.Loc.none }
        :: !instances)
    cluster.Clustering.members;
  { V.Elaborate.em_name = name; em_orig_name = name;
    em_ports = List.rev !ports; em_nets = List.rev !nets; em_assigns = [];
    em_always = []; em_instances = List.rev !instances; em_params = [] }

(** Synthesize the gate-level circuit of a cluster's synthetic top. *)
let cluster_netlist (design : V.Elaborate.design) (cluster : Clustering.cluster)
    : N.Circuit.t =
  let name = "efpga_cluster" in
  let wrapper = wrapper_emodule design cluster ~name in
  N.Synth.synthesize
    { V.Elaborate.d_top = name;
      d_modules = V.Elaborate.Smap.add name wrapper design.V.Elaborate.d_modules }

(** Synthesize and LUT-map the circuit a cluster would put on a fabric. *)
let cluster_circuit (design : V.Elaborate.design) (cfg : C.Flow_config.t)
    (cluster : Clustering.cluster) : N.Circuit.t =
  fst (N.Lutmap.map ~k:cfg.C.Flow_config.lut_inputs (cluster_netlist design cluster))

(* One in-memory stage: its memo table and its lookup counters. *)
type 'v stage = {
  memo : (string, 'v) Memo.t;
  hits : int Atomic.t;
  computed : int Atomic.t;
}

let stage () =
  { memo = Memo.create ~size:64 (); hits = Atomic.make 0;
    computed = Atomic.make 0 }

(* A stage's value for [key], computed on a miss. No [Pool] dispatch, so
   a characterization stays one pool task however many stages it hits;
   an exception is never written back. *)
let through (s : 'v stage) (key : string) (compute : unit -> 'v) : 'v =
  let v, hit = Memo.find_or_compute s.memo key compute in
  Atomic.incr (if hit then s.hits else s.computed);
  v

type cache = {
  final : (string, characterization) Memo.t;
  netlists : N.Circuit.t stage;
  mapped_circuits : N.Circuit.t stage;
  packed : F.Place.clb list stage;
  placed : (F.Place.placement * F.Route.report) stage;
}

let create_cache ?load ?save () : cache =
  { final = Memo.create ~size:64 ?load ?save (); netlists = stage ();
    mapped_circuits = stage (); packed = stage (); placed = stage () }

type stage_stats = { stage : string; stage_hits : int; stage_computed : int }

let stage_stats (c : cache) : stage_stats list =
  let count name (s : _ stage) =
    { stage = name; stage_hits = Atomic.get s.hits;
      stage_computed = Atomic.get s.computed }
  in
  [ count "netlist" c.netlists; count "mapped" c.mapped_circuits;
    count "packed" c.packed; count "placed" c.placed ]

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
   [No_sharing] makes the blob a function of structure alone, so the
   digest is identical across processes — and two same-named modules
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
      let blob =
        Marshal.to_string ({ em with em_instances }, children)
          [ Marshal.No_sharing ]
      in
      let d = Digest.to_hex (Digest.string blob) in
      Hashtbl.add mdigests name d;
      d
  in
  digest_of

let cluster_key (digest_of : string -> string) (cfg : C.Flow_config.t) :
    Clustering.cluster -> string =
  let cfg_digest = C.Flow_config.characterize_digest cfg in
  fun (cluster : Clustering.cluster) ->
    let members =
      cluster.Clustering.members
      |> List.map (fun (m : V.Design.tree) ->
             m.module_name ^ "@" ^ digest_of m.module_name)
      |> List.sort compare |> String.concat "|"
    in
    members ^ "#" ^ cfg_digest

(** Clusters with the same member-module multiset, the same member
    *subtree content* and the same characterization-relevant
    configuration map to the same fabric — that triple is the cache key.
    Returns a keying function with the per-module digests and the config
    digest computed once, so keying a whole candidate set stays cheap. *)
let keyer (design : V.Elaborate.design) (cfg : C.Flow_config.t) :
    Clustering.cluster -> string =
  cluster_key (subtree_digester design) cfg

(* The netlist stage's key: the members in cluster order, each with the
   three names [wrapper_emodule] reads and its subtree digest. The
   ordered list, not the multiset, so that equal keys synthesize
   identical netlists, down to instance paths and port order. *)
let netlist_key (digest_of : string -> string) (cluster : Clustering.cluster)
    : string =
  cluster.Clustering.members
  |> List.map (fun (m : V.Design.tree) ->
         Printf.sprintf "%S %S %S %s" m.inst_name m.module_name
           m.orig_module_name (digest_of m.module_name))
  |> String.concat "|"

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
   fabric result is identical by construction (same module multiset),
   but a diagnostic must name *this* cluster's instances, not the ones
   of whichever alias computed first. *)
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

(* Characterize one cluster through the stages of [stages] ([nkey] is
   its netlist key). Any exception escaping synthesis, LUT mapping or
   the size search — except [Out_of_memory], which is not safely
   resumable — becomes a [Failed] outcome carrying a diagnostic, so a
   single broken cluster degrades to one lost candidate instead of
   aborting the run. *)
let compute (stages : cache) (design : V.Elaborate.design)
    (cfg : C.Flow_config.t) ((nkey, cluster) : string * Clustering.cluster) :
    characterization =
  let k = cfg.C.Flow_config.lut_inputs in
  let mkey = Printf.sprintf "%s#k=%d" nkey k in
  match
    let netlist =
      through stages.netlists nkey (fun () -> cluster_netlist design cluster)
    in
    through stages.mapped_circuits mkey (fun () ->
        fst (N.Lutmap.map ~k netlist))
  with
  | exception Out_of_memory -> raise Out_of_memory
  | exception e ->
    { cluster; outcome = Failed (diag_of_cluster_exn cluster e); mapped = None }
  | mapped -> (
    (* k, the CLB shape and the GPIO count are every field
       [Arch.of_config] sets, and its routing-track constants are
       fixed: the placed key determines the placement's arch *)
    let arch = F.Arch.of_config cfg in
    let pkey =
      Printf.sprintf "%s#luts=%d,ffs=%d" mkey arch.F.Arch.luts_per_clb
        arch.F.Arch.ffs_per_clb
    in
    let place_route clbs w =
      through stages.placed
        (Printf.sprintf "%s#gpio=%d,w=%d" pkey arch.F.Arch.gpio_per_tile w)
        (fun () -> F.Size_search.place_route arch mapped clbs w)
    in
    match
      F.Size_search.search arch
        ~min_size:cfg.C.Flow_config.min_fabric_size
        ~max_size:cfg.C.Flow_config.max_fabric_size
        ~target_utilization:cfg.C.Flow_config.target_utilization
        ~pack:(fun () ->
          through stages.packed pkey (fun () -> F.Place.pack arch mapped))
        ~place_route mapped
    with
    | exception Out_of_memory -> raise Out_of_memory
    | exception e ->
      { cluster; outcome = Failed (diag_of_cluster_exn cluster e);
        mapped = Some mapped }
    | Ok impl -> { cluster; outcome = Implemented impl; mapped = Some mapped }
    | Error f -> { cluster; outcome = Infeasible f; mapped = Some mapped })

(** Characterize every cluster; order preserved. One {!Memo.resolve}
    call does the work: clusters are deduplicated by cache key up front
    — one computation per unique module multiset — and the unique keys
    not already in [cache] are fanned out over [jobs] worker domains
    (serial, without spawning a domain, when [jobs] is 1). With
    [deadline_s], unique keys whose characterization has not *started*
    when the deadline passes become [Skipped] with a [W0701] diagnostic
    — a computation already in flight is allowed to finish. Results are
    fanned back out to every aliasing cluster, each with its diagnostics
    relabeled to its own instances.

    Only real fabric verdicts ([Implemented]/[Infeasible]) are written
    back to [cache]: a fault or a deadline skip is an artifact of this
    run, and caching it would make it stick across runs. *)
let run_all_stats ?deadline_s ?(jobs = 1) ?(cache : cache option)
    (design : V.Elaborate.design) (cfg : C.Flow_config.t)
    (clusters : Clustering.cluster list) : characterization list * stats =
  let cache = match cache with Some c -> c | None -> create_cache () in
  let t0 = Timebase.now_s () in
  let should_stop =
    Option.map (fun limit () -> Timebase.elapsed_since t0 > limit) deadline_s
  in
  let keep c =
    match c.outcome with
    | Implemented _ | Infeasible _ -> true
    | Failed _ | Skipped _ -> false
  in
  (* [compute] catches everything but [Out_of_memory] itself; a raised
     task is a safety net so an unexpected escape still costs one
     candidate *)
  let recover (_, cluster) e =
    let outcome =
      match e with
      | Some e -> Failed (diag_of_cluster_exn cluster e)
      | None ->
        Skipped
          (skip_diag ~deadline_s:(Option.value deadline_s ~default:0.0)
             cluster)
    in
    { cluster; outcome; mapped = None }
  in
  (* both keys up front, serially: the digest table is not shared with
     the worker domains *)
  let digest_of = subtree_digester design in
  let key_of = cluster_key digest_of cfg in
  let r =
    Memo.resolve ~jobs ?should_stop ~keep ~recover cache.final
      (compute cache design cfg)
      (List.map
         (fun cluster ->
           (key_of cluster, (netlist_key digest_of cluster, cluster)))
         clusters)
  in
  ( List.map2 retarget clusters r.Memo.values,
    { clusters = List.length clusters; unique = List.length r.Memo.uniques;
      cache_hits = r.Memo.hits; computed = r.Memo.computed;
      skipped = r.Memo.skipped } )
