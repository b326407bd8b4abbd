(* Golden bytes: the MD5 of the programmed-view Verilog the whole flow
   emits for a fixed set of designs and configurations. Any change to a
   kernel on the way (synthesis, LUT mapping, packing, selection,
   regeneration, or a chosen fabric width) that drifts the output bytes
   fails here, not only in a later self-consistency diff. The bitstream
   and the emitted wrapper read only the order of the CLBs, never their
   positions, so a placement or routing drift that keeps every width
   passes these; the placement goldens below pin positions, wirelength,
   routing and timing.

   Golden verdicts: the per-candidate attack rows (status, DIPs,
   conflicts, learnt clauses reused) of measured selection on four
   designs at two attack budgets. Conflict counts move with any change
   to the SAT solver's search (branching, propagation order, learning,
   clause-DB reduction), so a solver speedup that changes the search
   fails here even when every verdict status stays the same.

   Golden verdict keys: the strings verdicts persist under. *)

module A = Alice
module B = Alice_benchmarks.Suite
module C = Alice_config

let golden =
  [ ("GCD", `C1, "47d8e21c214839067405eb6fd9c1658d");
    ("GCD", `C2, "c3b6ff9a958e9192ed28827b7cd0fd86");
    ("SASC", `C1, "d4e2cbfa98a0878a079599d64971e873");
    ("USB_PHY", `C1, "f1022d53388f3c8913f1e7a673637599");
    ("FIR", `C2, "69c8d666cbe7418c18cf30ef1a53b007");
    ("IIR", `C2, "a4ef26a7558e7f476d4e4093203b6dad");
    ("SHA256", `C1, "b5dd27508cfb12ed00d5db249e7dceb5");
    ("SOC", `C1, "d9ef306b2d4cd343edc0eb8bbf602276") ]

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

(* Golden verdict keys: the attack-verdict cache key of a candidate
   (design, configuration, cluster). Every persisted verdict is stored
   under such a string, so a change to its format would silently orphan
   every verdict store. *)
let golden_verdict_keys =
  [ ( "GCD", `C1, "gcd.u_dp.u_lt",
      "attack-verdict v2 df102eb899b38d0d29cdd9ef5aa3a879 \
       53c56390f1dfac01aff64a1b6c864247 39da22bac4b079a3f96fe4184e4ddfa5" ) ]

let cfg_label = function `C1 -> "cfg1" | `C2 -> "cfg2"

let run_flow ?(tune = Fun.id) name cfg =
  let b = Option.get (B.find name) in
  let config = match cfg with `C1 -> B.config1 b | `C2 -> B.config2 b in
  let config = tune { config with C.Flow_config.jobs = 1; attack_jobs = 1 } in
  A.Flow.run_request
    (A.Flow.request ~config (A.Flow.Text { text = b.B.source; file = None }))

let programmed_digest name cfg =
  match A.Flow.redact ~view:A.Redact.Programmed (run_flow name cfg) with
  | None -> Alcotest.failf "%s: no redaction" name
  | Some red -> Digest.to_hex (Digest.string red.A.Redact.verilog)

let mapping_digest name k =
  let module N = Alice_netlist in
  let c = N.Synth.synthesize (B.elaborate (Option.get (B.find name))) in
  let _, mapping = N.Lutmap.map ~k c in
  Digest.to_hex (Digest.string (Marshal.to_string mapping.N.Lutmap.luts [ Marshal.No_sharing ]))

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
              impl.F.Size_search.routing,
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
  List.map
    (fun (name, cfg, want) ->
      let label = Printf.sprintf "%s %s programmed bytes" name (cfg_label cfg) in
      Alcotest.test_case label `Quick (fun () ->
          Alcotest.(check string) label want (programmed_digest name cfg)))
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
