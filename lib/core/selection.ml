(** eFPGA selection — Algorithm 3 of the paper.

    Valid fabric implementations are scored by Eq. 1:

      T_f = alpha * (MaxIOUtil - IOUtil_f) / MaxIOUtil
          + beta  * (MaxCLBUtil - CLBUtil_f) / MaxCLBUtil

    and a branch-and-bound enumeration builds every admissible solution:
    a set of eFPGAs with pairwise-disjoint redacted instances, final when
    it reaches the eFPGA budget or redacts every admissible instance.
    |S| counts final solutions plus non-empty working solutions (line 24
    of the algorithm). The ranking direction follows
    {!Alice_config.Flow_config.rank_order} (see its doc for the Eq. 1
    polarity discussion). *)

module C = Alice_config
module F = Alice_fabric
module V = Alice_verilog

(** The scoring seam of Algorithm 3. [Heuristic] is Eq. 1 exactly as
    today — utilization proxies, zero solver work. [Measured] replaces
    the proxy with ground truth: every valid candidate's locked netlist
    is attacked with the budgeted oracle-guided SAT attack from
    {!Alice_security.Sat_attack}, and candidates are ranked on
    key-recovery cost (a candidate solved within the budget scores by
    how many conflicts the attack needed; one that resisted the budget
    outranks every solved one), traded against fabric area via
    [attack_area_weight].

    Verdicts are deterministic by construction: the measured budget is
    conflict- and iteration-bounded only (no wall clock), and a verdict
    carries no timing — so verdicts are bit-identical across
    [attack_jobs] values and across cold/warm cache runs, and safe to
    persist keyed by fabric digest x locked-netlist digest x budget
    digest ({!Alice_config.Flow_config.attack_digest}). *)
module Scorer = struct
  module Sec = Alice_security
  module Memo = Alice_parallel.Memo

  (* What one budgeted attack run concluded about one candidate. No
     wall-clock field: a verdict must be a pure function of its cache
     key so warm re-ranks are byte-identical to cold ones. *)
  type verdict = {
    v_status : Sec.Sat_attack.status;
    v_iterations : int;   (* DIPs the attack used *)
    v_conflicts : int;    (* solver conflicts spent across all calls *)
    v_key_bits : int;
    v_reused : int;       (* learnt clauses the attack's incremental
                             session carried across queries *)
  }

  type stats = {
    attacks_run : int;           (* verdicts computed by attacking *)
    attacks_cached : int;        (* verdicts served from the cache *)
    attacks_inconclusive : int;  (* unique verdicts proving nothing *)
    attacks_reused : int;        (* learnt clauses reused, summed over
                                    unique verdicts *)
  }

  let empty_stats =
    { attacks_run = 0; attacks_cached = 0; attacks_inconclusive = 0;
      attacks_reused = 0 }

  let add_stats a b =
    { attacks_run = a.attacks_run + b.attacks_run;
      attacks_cached = a.attacks_cached + b.attacks_cached;
      attacks_inconclusive = a.attacks_inconclusive + b.attacks_inconclusive;
      attacks_reused = a.attacks_reused + b.attacks_reused }

  type cache = (string, verdict) Memo.t

  let create_cache ?load ?save () : cache = Memo.create ~size:64 ?load ?save ()

  (* [No_sharing] makes the blob a function of structure alone, so the
     digest is stable across processes (same discipline as
     characterization's module digests). *)
  let digest_of x =
    Digest.to_hex (Digest.string (Marshal.to_string x [ Marshal.No_sharing ]))

  (** Attack-verdict cache key: fabric digest x locked-netlist digest x
      budget digest. Changing the fabric, the mapped netlist or any
      budget knob rekeys; changing [attack_jobs]/[attack_area_weight]
      does not (verdicts are reusable across both). The version tag is
      [v2] since the incremental solver (conflict counts and the
      [v_reused] field changed). *)
  let verdict_key (cfg : C.Flow_config.t) ~(fabric : F.Fabric.t)
      ~(mapped : Alice_netlist.Circuit.t) : string =
    Printf.sprintf "attack-verdict v2 %s %s %s" (digest_of fabric)
      (digest_of mapped)
      (C.Flow_config.attack_digest cfg)

  type t = Heuristic | Measured of { cache : cache option }

  let of_config ?cache (cfg : C.Flow_config.t) : t =
    match cfg.C.Flow_config.score_mode with
    | C.Flow_config.Heuristic -> Heuristic
    | C.Flow_config.Measured -> Measured { cache }

  let measured_budget (cfg : C.Flow_config.t) : Sec.Sat_attack.budget =
    { Sec.Sat_attack.max_iterations = cfg.C.Flow_config.attack_iterations;
      max_seconds = infinity;
      solver_conflicts = Some cfg.C.Flow_config.attack_budget }

  (** Attack one candidate's locked netlist under the measured budget. *)
  let attack_one (cfg : C.Flow_config.t) (mapped : Alice_netlist.Circuit.t) :
      verdict =
    let locked = Sec.Locked.of_mapped mapped in
    let oracle = Sec.Locked.make_oracle locked in
    let o = Sec.Sat_attack.attack ~budget:(measured_budget cfg) locked ~oracle in
    { v_status = o.Sec.Sat_attack.status;
      v_iterations = o.Sec.Sat_attack.iterations;
      v_conflicts = o.Sec.Sat_attack.conflicts;
      v_key_bits = o.Sec.Sat_attack.key_bits;
      v_reused = o.Sec.Sat_attack.reused }

  (** Resilience of a verdict in [0, 1]: a candidate the attack could
      not break within the budget scores 1.0; a broken candidate scores
      by how expensive the break was, [0.5 * c / (c + budget)] — always
      below 0.5 and monotone in the conflicts spent, so any resisting
      candidate outranks every solved one at equal area. *)
  let resilience (cfg : C.Flow_config.t) (v : verdict) : float =
    match v.v_status with
    | Sec.Sat_attack.Converged ->
      let b = float_of_int cfg.C.Flow_config.attack_budget in
      let c = float_of_int (max 0 v.v_conflicts) in
      0.5 *. c /. (c +. b)
    | Sec.Sat_attack.Exhausted | Sec.Sat_attack.Inconclusive -> 1.0

  (** Measured score: resilience minus the weighted area cost, where
      area is CLB count normalized by the largest valid fabric's. *)
  let measured_score (cfg : C.Flow_config.t) ~(max_clbs : int)
      (impl : F.Size_search.implementation) (v : verdict) : float =
    let area =
      if max_clbs <= 0 then 0.0
      else
        float_of_int (F.Fabric.clb_count impl.F.Size_search.fabric)
        /. float_of_int max_clbs
    in
    resilience cfg v -. (cfg.C.Flow_config.attack_area_weight *. area)

  (** Resolve a verdict for every candidate, order preserved, through
      one {!Memo.resolve} call. Candidates aliasing the same cache key
      are attacked once; cache misses fan out over [attack_jobs] worker
      domains (strictly serial at 1). Verdicts of every status are
      written back — all are deterministic facts about (netlist, fabric,
      budget). A crashed or skipped attack task degrades to an uncached
      Inconclusive verdict so one broken candidate cannot abort
      selection. *)
  let measure ~(cache : cache option) (cfg : C.Flow_config.t)
      (cands : (F.Fabric.t * Alice_netlist.Circuit.t) list) :
      verdict list * stats =
    let memo = match cache with Some c -> c | None -> create_cache () in
    let recover _ _ =
      { v_status = Sec.Sat_attack.Inconclusive; v_iterations = 0;
        v_conflicts = 0; v_key_bits = 0; v_reused = 0 }
    in
    let r =
      Memo.resolve ~jobs:cfg.C.Flow_config.attack_jobs ~recover memo
        (attack_one cfg)
        (List.map
           (fun (fabric, mapped) -> (verdict_key cfg ~fabric ~mapped, mapped))
           cands)
    in
    let inconclusive, reused =
      List.fold_left
        (fun (inc, reu) (_, v) ->
          ( (match v.v_status with
            | Sec.Sat_attack.Inconclusive -> inc + 1
            | Sec.Sat_attack.Converged | Sec.Sat_attack.Exhausted -> inc),
            reu + v.v_reused ))
        (0, 0) r.Memo.uniques
    in
    ( r.Memo.values,
      { attacks_run = r.Memo.computed + r.Memo.skipped;
        attacks_cached = r.Memo.hits; attacks_inconclusive = inconclusive;
        attacks_reused = reused } )
end

type efpga_impl = {
  cluster : Clustering.cluster;
  impl : F.Size_search.implementation;
  mapped : Alice_netlist.Circuit.t;
  score : float;  (* Eq. 1, or the measured score under [Scorer.Measured] *)
  verdict : Scorer.verdict option;
      (* the attack verdict that produced [score]; [None] under
         [Scorer.Heuristic] *)
}

type solution = {
  efpgas : efpga_impl list;
  total_score : float;
  redacted_instances : int;
  is_final : bool;
}

type result = {
  valid : efpga_impl list;          (* F in Algorithm 3 *)
  solutions : solution list;        (* S *)
  best : solution option;           (* s_t *)
  max_io_util : float;
  max_clb_util : float;
  attack : Scorer.stats;            (* zero under Scorer.Heuristic *)
}

(** Fabric score. [max_io]/[max_clb] are the maxima over all valid
    fabrics. [Penalty] is Eq. 1 exactly as printed; [Reward] is the
    utilization-rewarding form that Table 2's selections require (see
    {!Alice_config.Flow_config.score_formula}). *)
let score_eq1 (cfg : C.Flow_config.t) ~(max_io : float) ~(max_clb : float)
    ~(io_util : float) ~(clb_util : float) : float =
  (* a degenerate maximum (zero, NaN or infinite — e.g. every valid
     fabric reports 0 I/O utilization) must yield a definite 0.0 term,
     never NaN: NaN scores would make the ranking sort nondeterministic *)
  let degenerate maxv = maxv <= 0.0 || not (Float.is_finite maxv) in
  let penalty maxv v = if degenerate maxv then 0.0 else (maxv -. v) /. maxv in
  let reward maxv v = if degenerate maxv then 0.0 else v /. maxv in
  let term =
    match cfg.C.Flow_config.score_formula with
    | C.Flow_config.Penalty -> penalty
    | C.Flow_config.Reward -> reward
  in
  (cfg.C.Flow_config.alpha *. term max_io io_util)
  +. (cfg.C.Flow_config.beta *. term max_clb clb_util)

let solution_of (efpgas : efpga_impl list) ~(total_instances : int)
    ~(max_efpgas : int) : solution =
  let redacted =
    List.fold_left
      (fun acc e -> acc + Clustering.member_count e.cluster)
      0 efpgas
  in
  { efpgas;
    total_score = List.fold_left (fun acc e -> acc +. e.score) 0.0 efpgas;
    redacted_instances = redacted;
    is_final = List.length efpgas >= max_efpgas || redacted >= total_instances }

(** Run Algorithm 3 over characterized clusters. [total_instances] is the
    number of admissible instances (for the IsFinal test). [scorer]
    (default: derived from the configuration's [score_mode]) decides how
    valid fabrics are scored — {!Scorer.Heuristic} is Eq. 1, byte-for-byte
    the historical behavior; {!Scorer.Measured} ranks on attack
    verdicts. *)
let run ?scorer (cfg : C.Flow_config.t)
    (characterized : Characterize.characterization list)
    ~(total_instances : int) : result =
  let scorer =
    match scorer with Some s -> s | None -> Scorer.of_config cfg
  in
  (* IsValid (line 4): the fabric exists within the permitted range and
     is not utilized below the designer's floor *)
  let valid_raw =
    List.filter_map
      (fun (c : Characterize.characterization) ->
        match (c.outcome, c.mapped) with
        | Characterize.Implemented impl, Some mapped
          when impl.F.Size_search.clb_util
               >= cfg.C.Flow_config.min_clb_utilization ->
          Some (c.Characterize.cluster, impl, mapped)
        | ( Characterize.(Implemented _ | Infeasible _ | Failed _ | Skipped _),
            (Some _ | None) ) -> None)
      characterized
  in
  let max_io_util =
    List.fold_left
      (fun acc (_, (i : F.Size_search.implementation), _) -> Float.max acc i.io_util)
      0.0 valid_raw
  and max_clb_util =
    List.fold_left
      (fun acc (_, (i : F.Size_search.implementation), _) -> Float.max acc i.clb_util)
      0.0 valid_raw
  in
  let valid, attack_stats =
    match scorer with
    | Scorer.Heuristic ->
      ( List.map
          (fun (cluster, (impl : F.Size_search.implementation), mapped) ->
            { cluster; impl; mapped; verdict = None;
              score =
                score_eq1 cfg ~max_io:max_io_util ~max_clb:max_clb_util
                  ~io_util:impl.io_util ~clb_util:impl.clb_util })
          valid_raw,
        Scorer.empty_stats )
    | Scorer.Measured { cache } ->
      let max_clbs =
        List.fold_left
          (fun acc (_, (i : F.Size_search.implementation), _) ->
            max acc (F.Fabric.clb_count i.F.Size_search.fabric))
          0 valid_raw
      in
      let verdicts, stats =
        Scorer.measure ~cache cfg
          (List.map
             (fun (_, (i : F.Size_search.implementation), m) ->
               (i.F.Size_search.fabric, m))
             valid_raw)
      in
      ( List.map2
          (fun (cluster, (impl : F.Size_search.implementation), mapped) v ->
            { cluster; impl; mapped; verdict = Some v;
              score = Scorer.measured_score cfg ~max_clbs impl v })
          valid_raw verdicts,
        stats )
  in
  let max_efpgas = cfg.C.Flow_config.max_efpgas in
  (* branch & bound: canonical (index-increasing) expansion so each set
     of eFPGAs is generated once *)
  let valid_arr = Array.of_list valid in
  let n = Array.length valid_arr in
  let solutions = ref [] in
  let rec expand (chosen : efpga_impl list) (start : int) =
    let s = solution_of (List.rev chosen) ~total_instances ~max_efpgas in
    if chosen <> [] then solutions := s :: !solutions;
    if not s.is_final then
      for i = start to n - 1 do
        let cand = valid_arr.(i) in
        let disjoint_all =
          List.for_all (fun e -> Clustering.disjoint e.cluster cand.cluster) chosen
        in
        if disjoint_all then expand (cand :: chosen) (i + 1)
      done
  in
  expand [] 0;
  let ranked =
    List.sort
      (fun a b ->
        match cfg.C.Flow_config.rank_order with
        | C.Flow_config.Highest -> compare b.total_score a.total_score
        | C.Flow_config.Lowest -> compare a.total_score b.total_score)
      !solutions
  in
  let best = match ranked with [] -> None | s :: _ -> Some s in
  { valid; solutions = ranked; best; max_io_util; max_clb_util;
    attack = attack_stats }

let solution_count (r : result) = List.length r.solutions

let pp_solution fmt (s : solution) =
  Format.fprintf fmt "score %.3f, %d eFPGA(s) [%s], %d redacted instances"
    s.total_score (List.length s.efpgas)
    (String.concat ", "
       (List.map
          (fun e -> F.Fabric.size_label e.impl.F.Size_search.fabric)
          s.efpgas))
    s.redacted_instances
