(* Graph reachability, dataflow analysis, I/O counting and the eFPGA
   insertion point. *)

module V = Alice_verilog
module A = Alice_analysis

(* ---------- graph ---------- *)

let test_reachability () =
  let g = A.Graph.create () in
  List.iter
    (fun (a, b) -> A.Graph.add_edge g (A.Graph.node g a) (A.Graph.node g b))
    [ ("a", "b"); ("b", "c"); ("d", "c") ];
  let a = Option.get (A.Graph.find_node g "a") in
  let c = Option.get (A.Graph.find_node g "c") in
  let d = Option.get (A.Graph.find_node g "d") in
  Alcotest.(check bool) "a reaches c" true (Hashtbl.mem (A.Graph.reachable g [ a ]) c);
  Alcotest.(check bool) "c unreachable from itself fwd" false
    (Hashtbl.mem (A.Graph.reachable g [ c ]) a);
  let cone = A.Graph.coreachable g [ c ] in
  Alcotest.(check int) "backward cone size" 4 (Hashtbl.length cone);
  Alcotest.(check bool) "d in cone" true (Hashtbl.mem cone d)

(* ---------- dataflow on a small design ---------- *)

let design_src =
  {|module producer (input [3:0] a, output [3:0] y);
    assign y = a + 4'h1;
  endmodule
  module consumer (input [3:0] a, output [3:0] y);
    assign y = ~a;
  endmodule
  module sink (input [3:0] a, output [3:0] y);
    assign y = a;
  endmodule
  module top (input [3:0] x, output [3:0] main_out, output [3:0] side_out);
    wire [3:0] t;
    producer u_prod (.a(x), .y(t));
    consumer u_cons (.a(t), .y(main_out));
    sink u_side (.a(x), .y(side_out));
  endmodule|}

let dataflow () =
  let d = V.Elaborate.elaborate (V.Parser.parse design_src) in
  (d, A.Dataflow.build d)

let test_affecting_instances () =
  let _, df = dataflow () in
  let names output =
    List.map (fun (n : V.Design.tree) -> n.inst_name)
      (A.Dataflow.instances_affecting df ~output)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "main_out cone" [ "u_cons"; "u_prod" ]
    (names "main_out");
  Alcotest.(check (list string)) "side_out cone" [ "u_side" ] (names "side_out")

let test_module_scores () =
  let _, df = dataflow () in
  let scores = A.Dataflow.module_scores df ~outputs:[ "main_out"; "side_out" ] in
  Alcotest.(check int) "producer score" 1 (List.assoc "producer" scores);
  Alcotest.(check int) "sink score" 1 (List.assoc "sink" scores);
  let scores_one = A.Dataflow.module_scores df ~outputs:[ "side_out" ] in
  Alcotest.(check int) "producer unscored" 0 (List.assoc "producer" scores_one)

let test_dependence () =
  let d, df = dataflow () in
  let inst name =
    List.find (fun (n : V.Design.tree) -> n.inst_name = name) (V.Design.all_instances d)
  in
  Alcotest.(check bool) "prod feeds cons directly" true
    (A.Dataflow.instances_directly_connected df (inst "u_prod") (inst "u_cons"));
  Alcotest.(check bool) "cons and side independent" false
    (A.Dataflow.instances_directly_connected df (inst "u_cons") (inst "u_side"));
  Alcotest.(check bool) "prod and side independent (direct)" false
    (A.Dataflow.instances_directly_connected df (inst "u_prod") (inst "u_side"));
  Alcotest.(check bool) "prod-cons dependent (transitive)" true
    (A.Dataflow.instances_dependent df (inst "u_prod") (inst "u_cons"))


let test_iocount () =
  let d, _ = dataflow () in
  let prod = V.Elaborate.find_emodule d "producer" in
  Alcotest.(check int) "module pins" 8 (V.Elaborate.io_pin_count prod);
  let instances = V.Design.all_instances d in
  Alcotest.(check int) "cluster pins aggregate" 24
    (Alice.Clustering.make_cluster d instances).Alice.Clustering.io_pins;
  let row = Alice.Report.table1_row ~design_name:"top" d in
  Alcotest.(check int) "summary modules" 3 row.Alice.Report.t1_modules;
  Alcotest.(check int) "summary instances" 3 row.Alice.Report.t1_instances;
  Alcotest.(check (pair int int)) "summary pin range" (8, 8)
    (row.Alice.Report.t1_io_min, row.Alice.Report.t1_io_max)

(* ---------- insertion point ---------- *)

let test_insertion_point () =
  let check name want members =
    Alcotest.(check string) name want (Alice.Redact.insertion_point members)
  in
  check "lca of two leaves" "top" [ "top.u_prod"; "top.u_cons" ];
  check "single instance" "top" [ "top.u_side" ]

(* Sibling names are drawn from a pool of names that are string
   prefixes of each other, so a character-wise common prefix of two
   parents can end inside a segment. *)
let sibling_names = [| "u_d"; "u_dp"; "u_dpx"; "u_dp2"; "u_a"; "u_ab" |]

(* A random instance tree: the top has 1-3 children, every other node
   0-3, at most four levels below the top. *)
let random_tree (st : Random.State.t) : V.Design.tree =
  let rec node path inst_name depth =
    let width =
      if depth = 4 then 0
      else if depth = 0 then 1 + Random.State.int st 3
      else Random.State.int st 4
    in
    let names = Array.copy sibling_names in
    for i = Array.length names - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = names.(i) in
      names.(i) <- names.(j);
      names.(j) <- t
    done;
    let children =
      List.init width (fun i -> node (path ^ "." ^ names.(i)) names.(i) (depth + 1))
    in
    { V.Design.path; inst_name; module_name = "m"; orig_module_name = "m"; children }
  in
  node "top" "top" 0

(* The reference compares node identities, never path strings: from the
   root, descend into the child whose subtree holds every member's
   parent, while there is one. *)
let reference_insertion (root : V.Design.tree) (members : V.Design.tree list) : string =
  let rec holds (t : V.Design.tree) target =
    t == target || List.exists (fun c -> holds c target) t.V.Design.children
  in
  let rec parent_in (t : V.Design.tree) m =
    if List.memq m t.V.Design.children then Some t
    else List.find_map (fun c -> parent_in c m) t.V.Design.children
  in
  let parents = List.map (fun m -> Option.get (parent_in root m)) members in
  let rec walk (t : V.Design.tree) =
    match
      List.find_opt (fun c -> List.for_all (holds c) parents) t.V.Design.children
    with
    | Some c -> walk c
    | None -> t.V.Design.path
  in
  walk root

(* Seeded property: [Redact.insertion_point] of 1-4 distinct random
   instances equals the reference, over 500 generated hierarchies that
   reach every shape counted below. *)
let test_insertion_point_generated () =
  let prefix_parents = ref 0 and mixed_depths = ref 0 and under_top = ref 0
  and single = ref 0 in
  for seed = 0 to 499 do
    let st = Random.State.make [| 0x1a5e; seed |] in
    let root = random_tree st in
    let nodes =
      Array.of_list (V.Design.fold_tree (fun acc n -> if n == root then acc else n :: acc) [] root)
    in
    let count = 1 + Random.State.int st (min 4 (Array.length nodes)) in
    let rec pick acc =
      if List.length acc = count then acc
      else
        let m = nodes.(Random.State.int st (Array.length nodes)) in
        pick (if List.memq m acc then acc else m :: acc)
    in
    let members = pick [] in
    let paths = List.map (fun (m : V.Design.tree) -> m.V.Design.path) members in
    let depth p = List.length (String.split_on_char '.' p) in
    let parents = List.map (fun p -> String.sub p 0 (String.rindex p '.')) paths in
    let ends_inside_segment p q =
      p <> q && String.starts_with ~prefix:p q
      && not (String.starts_with ~prefix:(p ^ ".") q)
    in
    if List.exists (fun p -> List.exists (ends_inside_segment p) parents) parents then
      incr prefix_parents;
    if List.exists (fun p -> depth p <> depth (List.hd paths)) paths then incr mixed_depths;
    if List.exists (fun p -> depth p = 2) paths then incr under_top;
    if count = 1 then incr single;
    Alcotest.(check string)
      (Printf.sprintf "seed %d: %s" seed (String.concat " " paths))
      (reference_insertion root members)
      (Alice.Redact.insertion_point paths)
  done;
  List.iter
    (fun (what, n) -> Alcotest.(check bool) (what ^ " generated") true (n > 0))
    [ ("parents that are string prefixes of each other", !prefix_parents);
      ("members at different depths", !mixed_depths);
      ("a member directly under the top", !under_top);
      ("a single-member cluster", !single) ]

let tests =
  [ Alcotest.test_case "reachability" `Quick test_reachability;
    Alcotest.test_case "affecting instances" `Quick test_affecting_instances;
    Alcotest.test_case "module scores" `Quick test_module_scores;
    Alcotest.test_case "dependence notions" `Quick test_dependence;
    Alcotest.test_case "insertion point" `Quick test_insertion_point;
    Alcotest.test_case "io counting" `Quick test_iocount;
    Alcotest.test_case "insertion point on generated hierarchies" `Quick
      test_insertion_point_generated ]
