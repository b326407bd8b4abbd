(* A brute-force Algorithm 3 for the tests. [Selection.run] keeps only
   |S| and the best solution; this rebuilds S itself from a result's
   [valid] candidates: every non-empty, pairwise-disjoint set of at most
   [max_efpgas] candidates, in lexicographic order of candidate index,
   which is the order the canonical expansion visits them. Ranking is a
   stable sort over that order reversed, so among equal scores the set
   enumerated last ranks first. *)

module A = Alice
module C = Alice_config
module V = Alice_verilog

let paths (e : A.Selection.efpga_impl) =
  List.map (fun (m : V.Design.tree) -> m.path) e.cluster.A.Clustering.members

let disjoint a b = not (List.exists (fun p -> List.mem p (paths b)) (paths a))

(* the sets extending [chosen] by candidates of [rest], in
   lexicographic order: each set, then its own extensions *)
let rec sets ~max_efpgas chosen = function
  | [] -> []
  | e :: rest ->
    let later = sets ~max_efpgas chosen rest in
    if List.length chosen < max_efpgas && List.for_all (disjoint e) chosen
    then
      let set = chosen @ [ e ] in
      (set :: sets ~max_efpgas set rest) @ later
    else later

let solution ~max_efpgas ~total_instances efpgas : A.Selection.solution =
  let redacted =
    List.fold_left (fun acc e -> acc + List.length (paths e)) 0 efpgas
  in
  { A.Selection.efpgas;
    total_score =
      List.fold_left (fun acc (e : A.Selection.efpga_impl) -> acc +. e.score)
        0.0 efpgas;
    redacted_instances = redacted;
    is_final =
      List.length efpgas >= max_efpgas || redacted >= total_instances }

(* S of [r], ranked best first *)
let ranked (cfg : C.Flow_config.t) ~total_instances (r : A.Selection.result)
    : A.Selection.solution list =
  let max_efpgas = cfg.C.Flow_config.max_efpgas in
  let s =
    List.map
      (solution ~max_efpgas ~total_instances)
      (sets ~max_efpgas [] r.A.Selection.valid)
  in
  List.stable_sort
    (fun (a : A.Selection.solution) (b : A.Selection.solution) ->
      match cfg.C.Flow_config.rank_order with
      | C.Flow_config.Highest -> compare b.total_score a.total_score
      | C.Flow_config.Lowest -> compare a.total_score b.total_score)
    (List.rev s)

(* the ranked S of a finished flow's selection *)
let of_flow (flow : A.Flow.t) : A.Selection.solution list =
  ranked flow.A.Flow.config
    ~total_instances:
      (List.length (A.Filtering.candidate_instances flow.A.Flow.filtering))
    flow.A.Flow.selection
