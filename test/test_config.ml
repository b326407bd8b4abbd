(* YAML-subset parser and flow configuration tests. *)

module C = Alice_config
module J = C.Json_lite

let parse = C.Yaml_lite.parse

let test_scalars () =
  Alcotest.(check bool) "int" true (parse "a: 42" = J.Obj [ ("a", J.Int 42) ]);
  Alcotest.(check bool) "float" true (parse "a: 1.5" = J.Obj [ ("a", J.Float 1.5) ]);
  Alcotest.(check bool) "bool true" true (parse "a: true" = J.Obj [ ("a", J.Bool true) ]);
  Alcotest.(check bool) "bool no" true (parse "a: no" = J.Obj [ ("a", J.Bool false) ]);
  Alcotest.(check bool) "null" true (parse "a: ~" = J.Obj [ ("a", J.Null) ]);
  Alcotest.(check bool) "quoted string" true
    (parse {|a: "hello world"|} = J.Obj [ ("a", J.String "hello world") ]);
  Alcotest.(check bool) "bare string" true
    (parse "a: hello" = J.Obj [ ("a", J.String "hello") ])

let test_nesting () =
  let doc = parse {|
top: des3
fabric:
  lut_inputs: 4
  max_size: 8
outputs:
  - des_out
  - valid
inline: [1, 2, 3]
|} in
  let fabric = Option.get (J.find doc "fabric") in
  Alcotest.(check int) "nested int" 4 (J.get_int fabric "lut_inputs");
  Alcotest.(check int) "nested int 2" 8 (J.get_int fabric "max_size");
  Alcotest.(check (list string)) "block list" [ "des_out"; "valid" ]
    (J.get_string_list doc "outputs");
  (match J.find doc "inline" with
  | Some (J.List [ J.Int 1; J.Int 2; J.Int 3 ]) -> ()
  | _ -> Alcotest.fail "inline list")

let test_comments_blanks () =
  let doc = parse {|
# leading comment
a: 1  # trailing comment

b: "has # inside"
|} in
  Alcotest.(check int) "a" 1 (J.get_int doc "a");
  Alcotest.(check string) "b keeps hash" "has # inside" (J.get_string doc "b")

let test_errors () =
  (match parse "a: 1\n\tb: 2" with
  | exception C.Yaml_lite.Parse_error (2, _) -> ()
  | exception C.Yaml_lite.Parse_error _ -> Alcotest.fail "wrong line"
  | _ -> Alcotest.fail "expected tab rejection");
  (match parse "just a bare line" with
  | exception C.Yaml_lite.Parse_error _ -> ()
  | J.String _ -> () (* a single scalar line parses as flow value *)
  | _ -> Alcotest.fail "unexpected");
  (* the subset has no flow maps: an unquoted [{] starting a value or a
     list item is refused on its line, not read as a string or a key *)
  List.iter
    (fun (src, line) ->
      match parse src with
      | exception C.Yaml_lite.Parse_error (l, _) -> Alcotest.(check int) src line l
      | _ -> Alcotest.failf "accepted: %s" (String.escaped src))
    [ ("base: {max_efpgas: 1}", 1);
      ("sweep:\n  - {name: a, max_efpgas: 1}", 2);
      ("axes: {lut_inputs: [4]}", 1);
      ("a: 1\nb: [1, {c: 2}]", 2);
      ("{a: 1}", 1) ];
  Alcotest.(check bool) "quoted brace is a string" true
    (parse "a: '{b: 1}'" = J.Obj [ ("a", J.String "{b: 1}") ])

let test_flow_config () =
  let cfg =
    C.Flow_config.of_string
      {|
max_io_pins: 96
max_efpgas: 1
alpha: 2.0
beta: 0.5
score_formula: penalty
rank_order: lowest
selected_outputs:
  - result
fabric:
  lut_inputs: 6
  min_size: 3
  max_size: 12
  target_utilization: 0.6
  min_clb_utilization: 0.25
|}
  in
  Alcotest.(check int) "io pins" 96 cfg.C.Flow_config.max_io_pins;
  Alcotest.(check int) "efpgas" 1 cfg.C.Flow_config.max_efpgas;
  Alcotest.(check (float 1e-9)) "alpha" 2.0 cfg.C.Flow_config.alpha;
  Alcotest.(check bool) "penalty" true (cfg.C.Flow_config.score_formula = C.Flow_config.Penalty);
  Alcotest.(check bool) "lowest" true (cfg.C.Flow_config.rank_order = C.Flow_config.Lowest);
  Alcotest.(check int) "lut inputs" 6 cfg.C.Flow_config.lut_inputs;
  Alcotest.(check int) "min size" 3 cfg.C.Flow_config.min_fabric_size;
  Alcotest.(check (float 1e-9)) "floor" 0.25 cfg.C.Flow_config.min_clb_utilization;
  Alcotest.(check (list string)) "outputs" [ "result" ] cfg.C.Flow_config.selected_outputs

let test_flow_config_defaults () =
  let cfg = C.Flow_config.of_string "max_io_pins: 64" in
  Alcotest.(check int) "default efpgas" 2 cfg.C.Flow_config.max_efpgas;
  Alcotest.(check int) "default lut inputs" 4 cfg.C.Flow_config.lut_inputs;
  Alcotest.(check bool) "default reward" true
    (cfg.C.Flow_config.score_formula = C.Flow_config.Reward)

(* a LUT needs at least 2 inputs; no upper bound *)
let test_lut_inputs_bound () =
  List.iter
    (fun k ->
      match C.Flow_config.of_string (Printf.sprintf "fabric:\n  lut_inputs: %d" k) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "lut_inputs: %d accepted" k)
    [ 1; 0; -3 ];
  Alcotest.(check int) "k = 16 accepted" 16
    (C.Flow_config.of_string "fabric:\n  lut_inputs: 16").C.Flow_config.lut_inputs

(* a CLB holds at least one LUT, a flip-flop per LUT, and an I/O tile
   at least one pin *)
let test_clb_io_bounds () =
  List.iter
    (fun fields ->
      match C.Flow_config.of_string ("fabric:\n" ^ fields) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted: %s" (String.escaped fields))
    [ "  luts_per_clb: 0"; "  luts_per_clb: -1"; "  ffs_per_clb: 0"; "  ffs_per_clb: 3";
      "  luts_per_clb: 6\n  ffs_per_clb: 5"; "  gpio_per_tile: 0"; "  gpio_per_tile: -8" ];
  let c = C.Flow_config.of_string "fabric:\n  luts_per_clb: 1\n  ffs_per_clb: 1\n  gpio_per_tile: 1" in
  Alcotest.(check (list int)) "smallest accepted" [ 1; 1; 1 ]
    C.Flow_config.[ c.luts_per_clb; c.ffs_per_clb; c.gpio_per_tile ];
  let c = C.Flow_config.of_string "max_io_pins: 64" in
  Alcotest.(check (list int)) "defaults" [ 4; 4; 8 ]
    C.Flow_config.[ c.luts_per_clb; c.ffs_per_clb; c.gpio_per_tile ]

(* a utilization is a fraction: the mapper's target in (0, 1], the
   IsValid floor in [0, 1]; nan and inf, which the YAML subset reads as
   floats, are refused too, naming the key *)
let test_utilization_bounds () =
  let message fields =
    match C.Flow_config.of_string ("fabric:\n" ^ fields) with
    | exception Invalid_argument m -> m
    | _ -> Alcotest.failf "accepted: %s" (String.escaped fields)
  in
  List.iter
    (fun v ->
      Alcotest.(check string) ("target " ^ v)
        "fabric.target_utilization: must be in (0, 1]"
        (message ("  target_utilization: " ^ v)))
    [ "nan"; "inf"; "-inf"; "0"; "0.0"; "-0.5"; "1.5"; "2" ];
  List.iter
    (fun v ->
      Alcotest.(check string) ("floor " ^ v)
        "fabric.min_clb_utilization: must be in [0, 1]"
        (message ("  min_clb_utilization: " ^ v)))
    [ "nan"; "inf"; "-0.1"; "1.01" ];
  let c =
    C.Flow_config.of_string
      "fabric:\n  target_utilization: 1\n  min_clb_utilization: 0"
  in
  Alcotest.(check (list (float 0.0))) "closed ends accepted" [ 1.0; 0.0 ]
    C.Flow_config.[ c.target_utilization; c.min_clb_utilization ];
  let c = C.Flow_config.of_string "fabric:\n  min_clb_utilization: 1.0" in
  Alcotest.(check (float 0.0)) "floor of 1 accepted" 1.0
    c.C.Flow_config.min_clb_utilization

(* a pin budget below 1 admits no module and an eFPGA budget below 1
   no solution: both are refused naming the key, not run to an empty
   result *)
let test_budget_bounds () =
  List.iter
    (fun (key, v) ->
      match C.Flow_config.of_string (Printf.sprintf "%s: %d" key v) with
      | exception Invalid_argument m ->
        Alcotest.(check string) (Printf.sprintf "%s: %d" key v)
          (key ^ ": must be at least 1") m
      | _ -> Alcotest.failf "%s: %d accepted" key v)
    [ ("max_io_pins", 0); ("max_io_pins", -1); ("max_efpgas", 0);
      ("max_efpgas", -2) ];
  let c = C.Flow_config.of_string "max_io_pins: 1\nmax_efpgas: 1" in
  Alcotest.(check (list int)) "smallest accepted" [ 1; 1 ]
    C.Flow_config.[ c.max_io_pins; c.max_efpgas ]

(* nan, which the YAML subset reads as a float, would score every
   solution nan or turn the deadline off, an empty fabric window would
   characterize every cluster only to find no fabric, and a fabric that
   is not a mapping would leave every fabric key at its default: all
   are refused naming the key, before any characterization. An inline
   fabric map is refused earlier, by the YAML subset. *)
let test_finite_and_window () =
  let message src =
    match C.Flow_config.of_string src with
    | exception Invalid_argument m -> m
    | _ -> Alcotest.failf "accepted: %s" (String.escaped src)
  in
  List.iter
    (fun (want, srcs) ->
      List.iter (fun src -> Alcotest.(check string) src want (message src)) srcs)
    [ ("alpha: must be finite", [ "alpha: nan"; "alpha: inf"; "alpha: -inf" ]);
      ("beta: must be finite", [ "beta: nan"; "beta: inf" ]);
      ( "attack_area_weight: must be non-negative and finite",
        [ "attack_area_weight: nan"; "attack_area_weight: inf";
          "attack_area_weight: -0.5" ] );
      ( "characterize_deadline_s: must be positive and finite",
        [ "characterize_deadline_s: nan"; "characterize_deadline_s: inf";
          "characterize_deadline_s: -2.5"; "characterize_deadline_s: 0.0" ] );
      ( "fabric.min_size: must be at least 1",
        [ "fabric:\n  min_size: 0"; "fabric:\n  min_size: -3\n  max_size: 5" ] );
      ( "fabric.max_size: must be at least fabric.min_size",
        [ "fabric:\n  min_size: 9\n  max_size: 5"; "fabric:\n  max_size: 0";
          "fabric:\n  max_size: 1" ] );
      ("fabric: expected a mapping", [ "fabric: 5"; "fabric: [4, 6]" ]) ];
  List.iter
    (fun src ->
      match C.Flow_config.of_string src with
      | exception C.Yaml_lite.Parse_error (1, _) -> ()
      | _ -> Alcotest.failf "accepted: %s" src)
    [ "fabric: {max_size: 0}"; "fabric: {min_size: 9, max_size: 5}" ];
  let c =
    C.Flow_config.of_string
      "alpha: -1.5\nbeta: 0\nattack_area_weight: 0\n\
       characterize_deadline_s: 0.001\nfabric:\n  min_size: 1\n  max_size: 1"
  in
  Alcotest.(check (list (float 0.0))) "finite edges accepted" [ -1.5; 0.0; 0.0 ]
    C.Flow_config.[ c.alpha; c.beta; c.attack_area_weight ];
  Alcotest.(check (option (float 0.0))) "small deadline accepted" (Some 0.001)
    c.C.Flow_config.characterize_deadline_s;
  Alcotest.(check (pair int int)) "one-width window accepted" (1, 1)
    C.Flow_config.(c.min_fabric_size, c.max_fabric_size)

let tests =
  [ Alcotest.test_case "scalars" `Quick test_scalars;
    Alcotest.test_case "nesting" `Quick test_nesting;
    Alcotest.test_case "comments" `Quick test_comments_blanks;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "flow config" `Quick test_flow_config;
    Alcotest.test_case "flow config defaults" `Quick test_flow_config_defaults;
    Alcotest.test_case "lut_inputs bound" `Quick test_lut_inputs_bound;
    Alcotest.test_case "clb and io bounds" `Quick test_clb_io_bounds;
    Alcotest.test_case "utilization bounds" `Quick test_utilization_bounds;
    Alcotest.test_case "pin and eFPGA budget bounds" `Quick test_budget_bounds;
    Alcotest.test_case "finite weights and fabric window" `Quick test_finite_and_window ]
