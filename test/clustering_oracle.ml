(* Reference Algorithm 2 for the differential suite: the pair loop
   [Alice.Clustering.run] used before its bitset rewrite, kept verbatim.
   Every round tries every ordered pair of current clusters, building
   each union with [make_cluster] (sort, pin sum, key) before asking
   whether it is new, fits the pin budget and joins independent
   members — the plainest statement of the fixed point, and the order
   the kernel must reproduce cluster for cluster. *)

module V = Alice_verilog
module A = Alice_analysis
module C = Alice_config
module Clustering = Alice.Clustering
module Filtering = Alice.Filtering

let independent (cfg : C.Flow_config.t) (df : A.Dataflow.t)
    (a : V.Design.tree) (b : V.Design.tree) : bool =
  if cfg.C.Flow_config.transitive_independence then
    not (A.Dataflow.instances_dependent df a b)
  else not (A.Dataflow.instances_directly_connected df a b)

let run (df : A.Dataflow.t) (cfg : C.Flow_config.t)
    (candidates : Filtering.result) : Clustering.cluster list =
  let open Clustering in
  let design = df.A.Dataflow.design in
  (* line 2-4: singleton clusters *)
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let all = ref [] in
  let add c =
    if not (Hashtbl.mem seen c.key) then begin
      Hashtbl.add seen c.key ();
      all := c :: !all;
      true
    end
    else false
  in
  List.iter
    (fun inst -> ignore (add (make_cluster design [ inst ])))
    (Filtering.candidate_instances candidates);
  (* independence is pairwise, so cache it per instance-path pair *)
  let indep_cache = Hashtbl.create 256 in
  let indep a b =
    let key =
      let pa = (a : V.Design.tree).path and pb = (b : V.Design.tree).path in
      if pa < pb then pa ^ "&" ^ pb else pb ^ "&" ^ pa
    in
    match Hashtbl.find_opt indep_cache key with
    | Some v -> v
    | None ->
      let v = independent cfg df a b in
      Hashtbl.add indep_cache key v;
      v
  in
  let cluster_pair_ok c1 c2 =
    List.for_all
      (fun m1 -> List.for_all (fun m2 -> m1.V.Design.path = m2.V.Design.path || indep m1 m2) c2.members)
      c1.members
  in
  (* lines 6-23: recombine until no new admissible cluster appears *)
  let flag = ref true in
  while !flag do
    flag := false;
    let current = !all in
    let fresh = ref [] in
    List.iter
      (fun c1 ->
        List.iter
          (fun c2 ->
            if c1.key <> c2.key then begin
              let union = make_cluster design (c1.members @ c2.members) in
              if (not (Hashtbl.mem seen union.key))
                 && check_parameters cfg union
                 && cluster_pair_ok c1 c2
              then begin
                Hashtbl.add seen union.key ();
                fresh := union :: !fresh
              end
            end)
          current)
      current;
    if !fresh <> [] then begin
      all := !fresh @ !all;
      flag := true
    end
  done;
  List.rev !all
