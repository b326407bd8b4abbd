(* YAML-subset parser and flow configuration tests. *)

module C = Alice_config

let parse = C.Yaml_lite.parse

let test_scalars () =
  Alcotest.(check bool) "int" true (parse "a: 42" = C.Yaml_lite.Map [ ("a", C.Yaml_lite.Int 42) ]);
  Alcotest.(check bool) "float" true (parse "a: 1.5" = C.Yaml_lite.Map [ ("a", C.Yaml_lite.Float 1.5) ]);
  Alcotest.(check bool) "bool true" true (parse "a: true" = C.Yaml_lite.Map [ ("a", C.Yaml_lite.Bool true) ]);
  Alcotest.(check bool) "bool no" true (parse "a: no" = C.Yaml_lite.Map [ ("a", C.Yaml_lite.Bool false) ]);
  Alcotest.(check bool) "null" true (parse "a: ~" = C.Yaml_lite.Map [ ("a", C.Yaml_lite.Null) ]);
  Alcotest.(check bool) "quoted string" true
    (parse {|a: "hello world"|} = C.Yaml_lite.Map [ ("a", C.Yaml_lite.String "hello world") ]);
  Alcotest.(check bool) "bare string" true
    (parse "a: hello" = C.Yaml_lite.Map [ ("a", C.Yaml_lite.String "hello") ])

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
  let fabric = Option.get (C.Yaml_lite.find doc "fabric") in
  Alcotest.(check int) "nested int" 4 (C.Yaml_lite.get_int fabric "lut_inputs");
  Alcotest.(check int) "nested int 2" 8 (C.Yaml_lite.get_int fabric "max_size");
  Alcotest.(check (list string)) "block list" [ "des_out"; "valid" ]
    (C.Yaml_lite.get_string_list doc "outputs");
  (match C.Yaml_lite.find doc "inline" with
  | Some (C.Yaml_lite.List [ C.Yaml_lite.Int 1; C.Yaml_lite.Int 2; C.Yaml_lite.Int 3 ]) -> ()
  | _ -> Alcotest.fail "inline list")

let test_comments_blanks () =
  let doc = parse {|
# leading comment
a: 1  # trailing comment

b: "has # inside"
|} in
  Alcotest.(check int) "a" 1 (C.Yaml_lite.get_int doc "a");
  Alcotest.(check string) "b keeps hash" "has # inside" (C.Yaml_lite.get_string doc "b")

let test_errors () =
  (match parse "a: 1\n\tb: 2" with
  | exception C.Yaml_lite.Parse_error (2, _) -> ()
  | exception C.Yaml_lite.Parse_error _ -> Alcotest.fail "wrong line"
  | _ -> Alcotest.fail "expected tab rejection");
  (match parse "just a bare line" with
  | exception C.Yaml_lite.Parse_error _ -> ()
  | C.Yaml_lite.String _ -> () (* a single scalar line parses as flow value *)
  | _ -> Alcotest.fail "unexpected")

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

let tests =
  [ Alcotest.test_case "scalars" `Quick test_scalars;
    Alcotest.test_case "nesting" `Quick test_nesting;
    Alcotest.test_case "comments" `Quick test_comments_blanks;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "flow config" `Quick test_flow_config;
    Alcotest.test_case "flow config defaults" `Quick test_flow_config_defaults;
    Alcotest.test_case "lut_inputs bound" `Quick test_lut_inputs_bound;
    Alcotest.test_case "clb and io bounds" `Quick test_clb_io_bounds ]
