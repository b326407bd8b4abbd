(* Golden bytes: the MD5 of the programmed-view Verilog the whole flow
   emits for a fixed set of designs and configurations. Any change to a
   kernel on the way (synthesis, LUT mapping, packing, placement,
   routing, selection, regeneration) that drifts the output bytes fails
   here, not only in a later self-consistency diff. *)

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

let programmed_digest name cfg =
  let b = Option.get (B.find name) in
  let config = match cfg with `C1 -> B.config1 b | `C2 -> B.config2 b in
  let config = { config with C.Flow_config.jobs = 1; attack_jobs = 1 } in
  let flow =
    A.Flow.run_request
      (A.Flow.request ~config (A.Flow.Text { text = b.B.source; file = None }))
  in
  match A.Flow.redact ~view:A.Redact.Programmed flow with
  | None -> Alcotest.failf "%s: no redaction" name
  | Some red -> Digest.to_hex (Digest.string red.A.Redact.verilog)

let tests =
  List.map
    (fun (name, cfg, want) ->
      let label =
        Printf.sprintf "%s %s programmed bytes" name
          (match cfg with `C1 -> "cfg1" | `C2 -> "cfg2")
      in
      Alcotest.test_case label `Quick (fun () ->
          Alcotest.(check string) label want (programmed_digest name cfg)))
    golden
