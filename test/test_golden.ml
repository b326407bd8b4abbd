(* Golden bytes: the MD5 of the Verilog the whole flow emits in each of
   the three views for a fixed set of designs and configurations. Any
   change to a kernel on the way (synthesis, LUT mapping, packing,
   selection, regeneration, printing, or a chosen fabric width) that
   drifts the output bytes fails here, not only in a later
   self-consistency diff. The opaque and structural digests were
   recorded before the printer moved from [Format] to a [Buffer]. The
   bitstream and the emitted wrapper read only the order of the CLBs,
   never their positions, so a placement or routing drift that keeps
   every width passes these; the placement goldens below pin positions,
   wirelength, routing and timing.

   Golden verdicts: the per-candidate attack rows (status, DIPs,
   conflicts, learnt clauses reused) of measured selection on four
   designs at two attack budgets. Conflict counts move with any change
   to the SAT solver's search (branching, propagation order, learning,
   clause-DB reduction), so a solver speedup that changes the search
   fails here even when every verdict status stays the same.

   Golden long sessions: the same attacks run to 40 DIPs under a
   3,000-conflict budget, where one session carries up to 80 pinned
   replay copies, reuses tens of thousands of learnt clauses and, in
   the largest, passes the clause-DB reduction ceiling; each row also
   pins the recovered key's digest.

   Golden query stats: every query's session counters, decisions
   included, over every valid candidate's attack in the satisfiable-query
   regime of measured selection.

   Golden verdict keys: the strings verdicts persist under. *)

module A = Alice
module B = Alice_benchmarks.Suite
module C = Alice_config

(* (design, configuration, programmed, opaque, structural) *)
let golden =
  [ ( "GCD", `C1, "47d8e21c214839067405eb6fd9c1658d",
      "a5aa14ecfa62aab74c6a91956caa551c", "a82daf948d3b31c69aa73285d9bc370c" );
    ( "GCD", `C2, "c3b6ff9a958e9192ed28827b7cd0fd86",
      "a7f85d0e0e6d23e27a81261b08c54beb", "85e0c203e0b1bff051bbaa4873d1103d" );
    ( "SASC", `C1, "d4e2cbfa98a0878a079599d64971e873",
      "9f5bc3eb03daafd9c52875c0e4e5d311", "28505c5e332ebe05857f4dd4f379bb0d" );
    ( "USB_PHY", `C1, "f1022d53388f3c8913f1e7a673637599",
      "b97cde5c217fd5630fa60bcfefc31ba7", "2953d4d89d5f280944a3fb89b8ce1da1" );
    ( "FIR", `C2, "69c8d666cbe7418c18cf30ef1a53b007",
      "c402745777aa86ed000653e789bec423", "e4c91485f16a97ae1591965a79bf3d12" );
    ( "IIR", `C2, "a4ef26a7558e7f476d4e4093203b6dad",
      "02c43ff9153b4967314a35adff1f1a4b", "aba62cd332a5ecb274d6f8858be13895" );
    ( "SHA256", `C1, "b5dd27508cfb12ed00d5db249e7dceb5",
      "f8b3544b5fbdad65fb1cea311f2d7897", "0ac2577b6633f035d53964ce7dfab64e" );
    ( "SOC", `C1, "d9ef306b2d4cd343edc0eb8bbf602276",
      "df3c519c1f388a622a9a0de01097b5cb", "25656ce4201f76fe54a6aff10ff2f294" ) ]

(* Golden mappings: the MD5 of the LUT list ([Marshal], no sharing) of
   whole-design synthesis mapped at k = 4, which every paper
   configuration uses, and at k = 6, which the advisor's LUT-size axis
   explores. *)
let golden_mappings =
  [ ("GCD", 4, "602ce39d0880faf76f0ad4dc60487eba");
    ("GCD", 6, "dc85773103cc408746c938dc66578383");
    ("SHA256", 4, "808869e1515d16f47072383e0d2eb9a0");
    ("SHA256", 6, "e451662094764d5159c1e447445fe34f");
    ("DES3", 4, "00539f9c80d32d2bc8a071cf239eca17");
    ("DES3", 6, "b89ebbf65d3bee074661cff58e2e36fe");
    ("SOC", 4, "47f963f7c7648522d750d25ef13b4d7d");
    ("SOC", 6, "3c549fc937e37f2d53aa5080911ff41e") ]

(* Golden placements: the MD5 of every implemented characterization's
   CLB positions, wirelength, routing report and critical path. *)
let golden_placements =
  [ ("SOC", `C1, "b0d507df8a33ac76c71e0cf2ab0707c6");
    ("SHA256", `C1, "9d1e652d6c2ccf2415e5bcadd2f806ca");
    ("FIR", `C2, "abb4a8218e0bbeec7b8695391b01dc9f") ]

(* (design, configuration, (attack budget, DIP iterations), rows) *)
let golden_verdicts =
  [ ("SASC", `C1, (500, 4), [ "sasc.u_tx_fifo 7x7 exhausted/4/272/784" ]);
    ("SASC", `C1, (1000, 8), [ "sasc.u_tx_fifo 7x7 exhausted/8/297/1896" ]);
    ("USB_PHY", `C1, (500, 4), [ "usb_phy.u_rx 7x7 exhausted/4/89/166" ]);
    ("USB_PHY", `C1, (1000, 8), [ "usb_phy.u_rx 7x7 exhausted/8/126/620" ]);
    ( "FIR", `C2, (500, 4),
      [ "fir.u_mac.u_accum 8x8 exhausted/4/132/386";
        "fir.u_mac.u_round 9x9 exhausted/4/41/59";
        "fir.u_mac.u_scaler 6x6 exhausted/4/67/93" ] );
    ( "FIR", `C2, (1000, 8),
      [ "fir.u_mac.u_accum 8x8 exhausted/8/134/912";
        "fir.u_mac.u_round 9x9 exhausted/8/281/670";
        "fir.u_mac.u_scaler 6x6 exhausted/8/453/649" ] );
    ("SHA256", `C1, (500, 4), [ "sha256.u_rom 12x12 exhausted/4/265/247" ]);
    ("SHA256", `C1, (1000, 8), [ "sha256.u_rom 12x12 inconclusive/5/2021/1533" ])
  ]

(* (design, configuration, clusters, rows): every valid candidate, or
   only the named cluster, attacked at (3000 conflicts, 40 DIPs). A row
   is cluster, fabric, status/DIPs/conflicts/reused, then the first 8
   hex digits of the recovered key's MD5, or "-" without a key.
   Recorded before the solver's clause store and watch lists became
   arrays and unreferenced nets lost their variables. *)
let golden_long_sessions =
  [ ("SASC", `C1, None, [ "sasc.u_tx_fifo 7x7 exhausted/40/1294/34836 -" ]);
    ("USB_PHY", `C1, None, [ "usb_phy.u_rx 7x7 exhausted/40/367/7306 -" ]);
    ( "IIR", `C2, None,
      [ "iir.u_engine.u_mac 15x15 inconclusive/17/4401/15226 -";
        "iir.u_engine.u_quant 9x9 exhausted/40/3299/40539 -" ] );
    ( "GCD", `C2, Some "gcd.u_dp.u_reg_b|gcd.u_dp.u_sub",
      [ "gcd.u_dp.u_reg_b|gcd.u_dp.u_sub 6x6 exhausted/40/2099/27280 -" ] ) ]

(* (design, configuration, digest): the MD5 of every query's
   [Solver.Incremental.stats], one line per query, over the attacks of
   every valid candidate at (500 conflicts, 4 DIPs), the deck's budget.
   There nearly every query is satisfiable and decisions outnumber
   conflicts by far, so this pins the branching order where the verdict
   rows, which hold no decision, do not. *)
let golden_query_stats =
  [ ("SASC", `C1, "17f08c132aa5a3420cd3da950873426d");
    ("SHA256", `C1, "6509e1ca9a2f2c3edbd4eff108363aa9") ]

(* Golden verdict keys: the attack-verdict cache key of a candidate
   (design, configuration, cluster). Every persisted verdict is stored
   under such a string, so a change to its format would silently orphan
   every stored verdict. *)
let golden_verdict_keys =
  [ ( "GCD", `C1, "gcd.u_dp.u_lt",
      "attack-verdict v3 df102eb899b38d0d29cdd9ef5aa3a879 \
       53c56390f1dfac01aff64a1b6c864247 39da22bac4b079a3f96fe4184e4ddfa5" ) ]

let cfg_label = function `C1 -> "cfg1" | `C2 -> "cfg2"

let run_flow ?(tune = Fun.id) name cfg =
  let b = Option.get (B.find name) in
  let config = match cfg with `C1 -> B.config1 b | `C2 -> B.config2 b in
  let config = tune { config with C.Flow_config.jobs = 1; attack_jobs = 1 } in
  A.Flow.run_request
    (A.Flow.request ~config (A.Flow.Text { text = b.B.source; file = None }))

let view_digest view name cfg =
  match A.Flow.redact ~view (run_flow name cfg) with
  | None -> Alcotest.failf "%s: no redaction" name
  | Some red -> Digest.to_hex (Digest.string red.A.Redact.verilog)

let mapping_digest name k =
  let module N = Alice_netlist in
  let c = N.Synth.synthesize (B.elaborate (Option.get (B.find name))) in
  let luts = Test_lutmap.luts_of (N.Lutmap.map ~k c) in
  Digest.to_hex (Digest.string (Marshal.to_string luts [ Marshal.No_sharing ]))

let placement_digest name cfg =
  let module F = Alice_fabric in
  let placed =
    List.filter_map
      (fun (ch : A.Characterize.characterization) ->
        match (ch.A.Characterize.outcome, ch.A.Characterize.mapped) with
        | A.Characterize.Implemented impl, Some mapped ->
          let p = impl.F.Size_search.placement in
          Some
            ( List.map snd p.F.Place.clbs,
              p.F.Place.wirelength,
              F.Route.route p,
              (F.Timing.estimate p mapped).F.Timing.critical_path_ns )
        | _ -> None)
      (run_flow name cfg).A.Flow.characterized
  in
  Digest.to_hex (Digest.string (Marshal.to_string placed [ Marshal.No_sharing ]))

let verdict_rows name cfg (budget, iterations) =
  let measured c =
    { c with
      C.Flow_config.score_mode = C.Flow_config.Measured;
      attack_budget = budget;
      attack_iterations = iterations }
  in
  List.map
    (fun (r : A.Report.verdict_row) ->
      Printf.sprintf "%s %s %s/%d/%d/%d" r.A.Report.vr_cluster
        r.A.Report.vr_fabric r.A.Report.vr_status r.A.Report.vr_dips
        r.A.Report.vr_conflicts r.A.Report.vr_reused)
    (A.Report.verdict_rows (run_flow ~tune:measured name cfg))

let long_session_rows name cfg only =
  let module F = Alice_fabric in
  let module Sec = Alice_security in
  let budget =
    { Sec.Sat_attack.max_iterations = 40; solver_conflicts = Some 3_000 }
  in
  List.filter_map
    (fun (e : A.Selection.efpga_impl) ->
      let cluster = e.A.Selection.cluster.A.Clustering.key in
      if Option.fold ~none:false ~some:(( <> ) cluster) only then None
      else begin
        let l = Sec.Locked.of_mapped e.A.Selection.mapped in
        let o = Sec.Sat_attack.attack ~budget l ~oracle:(Sec.Locked.make_oracle l) in
        let key =
          match o.Sec.Sat_attack.key with
          | None -> "-"
          | Some k ->
            let bits = String.init (Array.length k) (fun i -> if k.(i) then '1' else '0') in
            String.sub (Digest.to_hex (Digest.string bits)) 0 8
        in
        Some
          (Printf.sprintf "%s %s %s/%d/%d/%d %s" cluster
             (F.Fabric.size_label e.A.Selection.impl.F.Size_search.fabric)
             (Sec.Sat_attack.status_to_string o.Sec.Sat_attack.status)
             o.Sec.Sat_attack.iterations o.Sec.Sat_attack.conflicts
             o.Sec.Sat_attack.reused key)
      end)
    (run_flow name cfg).A.Flow.selection.A.Selection.valid

let query_stats_digest name cfg =
  let module Sec = Alice_security in
  let module S = Alice_sat.Solver.Incremental in
  let budget =
    { Sec.Sat_attack.max_iterations = 4; solver_conflicts = Some 500 }
  in
  let lines = Buffer.create 4096 in
  let observe (st : S.stats) =
    Printf.bprintf lines "%d %d %d %d %d %d %d %d %d\n" st.S.queries
      st.S.conflicts st.S.decisions st.S.propagations st.S.learnt_live
      st.S.learnt_reused st.S.learnt_dropped st.S.learnt_ceiling st.S.reduces
  in
  List.iter
    (fun (e : A.Selection.efpga_impl) ->
      let l = Sec.Locked.of_mapped e.A.Selection.mapped in
      ignore
        (Sec.Sat_attack.attack ~budget ~observe l
           ~oracle:(Sec.Locked.make_oracle l)))
    (run_flow name cfg).A.Flow.selection.A.Selection.valid;
  Digest.to_hex (Digest.string (Buffer.contents lines))

let verdict_key name cfg cluster_key =
  let module F = Alice_fabric in
  let flow = run_flow name cfg in
  match
    List.find_opt
      (fun (e : A.Selection.efpga_impl) ->
        e.A.Selection.cluster.A.Clustering.key = cluster_key)
      flow.A.Flow.selection.A.Selection.valid
  with
  | None -> Alcotest.failf "%s: no valid candidate %s" name cluster_key
  | Some e ->
    A.Selection.Scorer.verdict_key flow.A.Flow.config
      ~fabric:e.A.Selection.impl.F.Size_search.fabric
      ~mapped:e.A.Selection.mapped

let tests =
  List.concat_map
    (fun (name, cfg, programmed, opaque, structural) ->
      List.map
        (fun (view, label, want) ->
          let label = Printf.sprintf "%s %s %s bytes" name (cfg_label cfg) label in
          Alcotest.test_case label `Quick (fun () ->
              Alcotest.(check string) label want (view_digest view name cfg)))
        [ (A.Redact.Programmed, "programmed", programmed);
          (A.Redact.Opaque, "opaque", opaque);
          (A.Redact.Structural, "structural", structural) ])
    golden
  @ List.map
      (fun (name, cfg, ((budget, iterations) as b), want) ->
        let label =
          Printf.sprintf "%s %s verdicts at %d/%d" name
            (cfg_label cfg) budget iterations
        in
        Alcotest.test_case label `Quick (fun () ->
            Alcotest.(check (list string)) label want (verdict_rows name cfg b)))
      golden_verdicts
  @ List.map
      (fun (name, cfg, only, want) ->
        let label =
          Printf.sprintf "%s %s long-session verdicts at 3000/40" name
            (cfg_label cfg)
        in
        Alcotest.test_case label `Slow (fun () ->
            Alcotest.(check (list string)) label want
              (long_session_rows name cfg only)))
      golden_long_sessions
  @ List.map
      (fun (name, cfg, want) ->
        let label =
          Printf.sprintf "%s %s query stats at 500/4" name (cfg_label cfg)
        in
        Alcotest.test_case label `Quick (fun () ->
            Alcotest.(check string) label want (query_stats_digest name cfg)))
      golden_query_stats
  @ List.map
      (fun (name, k, want) ->
        let label = Printf.sprintf "%s k=%d mapping" name k in
        Alcotest.test_case label `Quick (fun () ->
            Alcotest.(check string) label want (mapping_digest name k)))
      golden_mappings
  @ List.map
      (fun (name, cfg, want) ->
        let label = Printf.sprintf "%s %s placements" name (cfg_label cfg) in
        Alcotest.test_case label `Quick (fun () ->
            Alcotest.(check string) label want (placement_digest name cfg)))
      golden_placements
  @ List.map
      (fun (name, cfg, cluster, want) ->
        let label = Printf.sprintf "%s %s verdict key" name (cfg_label cfg) in
        Alcotest.test_case label `Quick (fun () ->
            Alcotest.(check string) label want (verdict_key name cfg cluster)))
      golden_verdict_keys
