(* The splice: a multi-member cluster's mapped circuit, built from its
   members' pieces, must equal the whole cluster synthesized and mapped
   at once, byte for byte under [Marshal] with sharing, or both must
   raise. The corpus is every multi-member cluster of the paper designs
   and seeded hierarchical designs made to hit each relocation rule. A
   cluster whose piece raises is characterized whole, so its
   diagnostic is the one the whole cluster always gave. *)

module A = Alice
module B = Alice_benchmarks.Suite
module C = Alice_config
module D = Alice_diag.Diag
module N = Alice_netlist
module V = Alice_verilog

(* ---------- a seeded hierarchical design ---------- *)

(* A Verilog expression of [depth] at most over [vars], all [w] bits
   wide: literals put constant-0 and constant-1 bits in every order, and
   ternaries put muxes that k = 2 cannot cover. *)
let rec expr st ~depth ~w (vars : string list) : string =
  let var () = List.nth vars (Random.State.int st (List.length vars)) in
  if depth = 0 || Random.State.int st 3 = 0 then
    if Random.State.int st 3 = 0 then
      Printf.sprintf "%d'd%d" w (Random.State.int st (1 lsl w))
    else var ()
  else
    let sub () = expr st ~depth:(depth - 1) ~w vars in
    match Random.State.int st 6 with
    | 0 -> Printf.sprintf "(%s & %s)" (sub ()) (sub ())
    | 1 -> Printf.sprintf "(%s | %s)" (sub ()) (sub ())
    | 2 -> Printf.sprintf "(%s ^ %s)" (sub ()) (sub ())
    | 3 -> Printf.sprintf "(%s + %s)" (sub ()) (sub ())
    | 4 -> Printf.sprintf "(%s[0] ? %s : %s)" (var ()) (sub ()) (sub ())
    | _ -> Printf.sprintf "(~%s)" (sub ())

(* A top over modules of every shape a member can have: constant
   sources with no input ([ones] drives only constant-1, [zeros] only
   constant-0, [konst] both in a random order), combinational logic with
   no register, an accumulator, a sink with no output, a parameterized
   module specialized twice, and a module nesting two instances, one
   input left unconnected. Each of the first five is instantiated twice,
   so a cluster can hold one module twice. *)
let generated_source seed : string =
  let st = Random.State.make [| 0x5b11ce; seed |] in
  let b = Buffer.create 2048 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  let width () = 1 + Random.State.int st 4 in
  let wk = width () and wc = width () and wa = width () and ws = width () in
  let wp = 2 + Random.State.int st 2 in
  line "module ones (output [1:0] y); assign y = 2'b11; endmodule";
  line "module zeros (output [1:0] y); assign y = 2'b00; endmodule";
  line "module konst (output [%d:0] y); assign y = %d'd%d; endmodule" (wk - 1) wk
    (Random.State.int st (1 lsl wk));
  line "module comb (input [%d:0] a, input [%d:0] b, output [%d:0] y);" (wc - 1)
    (wc - 1) (wc - 1);
  line "  assign y = %s;" (expr st ~depth:3 ~w:wc [ "a"; "b" ]);
  line "endmodule";
  line "module acc (input clk, input [%d:0] d, output reg [%d:0] q);" (wa - 1) (wa - 1);
  line "  always @(posedge clk) q <= %s;" (expr st ~depth:3 ~w:wa [ "d"; "q" ]);
  line "endmodule";
  line "module sink (input clk, input [%d:0] a);" (ws - 1);
  line "  reg [%d:0] r;" (ws - 1);
  line "  always @(posedge clk) r <= %s;" (expr st ~depth:2 ~w:ws [ "a"; "r" ]);
  line "endmodule";
  line "module par #(parameter W = 2) (input [W-1:0] a, output [W-1:0] y);";
  line "  assign y = %s;" (if Random.State.bool st then "a + 1" else "~a ^ 3");
  line "endmodule";
  line "module nest (input clk, input [%d:0] a, output [%d:0] y);" (wc - 1) (wc - 1);
  line "  wire [%d:0] t;" (wc - 1);
  line "  comb u_c (.a(a), .b(), .y(t));";
  line "  par #(.W(%d)) u_p (.a(t), .y(y));" wc;
  line "endmodule";
  line "module top (input clk, input [7:0] x);";
  let wire = ref 0 in
  let inst ?(params = "") m ports =
    incr wire;
    line "  %s%s u%d (%s);" m params !wire (String.concat ", " ports)
  in
  let out w =
    line "  wire [%d:0] w%d;" (w - 1) (!wire + 1);
    Printf.sprintf ".y(w%d)" (!wire + 1)
  in
  let x w = Printf.sprintf "x[%d:0]" (w - 1) in
  for _ = 1 to 2 do
    inst "ones" [ out 2 ];
    inst "zeros" [ out 2 ];
    inst "konst" [ out wk ];
    inst "comb" [ ".a(" ^ x wc ^ ")"; ".b(" ^ x wc ^ ")"; out wc ];
    line "  wire [%d:0] q%d;" (wa - 1) (!wire + 1);
    inst "acc" [ ".clk(clk)"; ".d(" ^ x wa ^ ")"; Printf.sprintf ".q(q%d)" (!wire + 1) ]
  done;
  inst "sink" [ ".clk(clk)"; ".a(" ^ x ws ^ ")" ];
  inst "par" ~params:(Printf.sprintf " #(.W(%d))" wp) [ ".a(" ^ x wp ^ ")"; out wp ];
  inst "par" [ ".a(x[1:0])"; out 2 ];
  inst "nest" [ ".clk(clk)"; ".a(" ^ x wc ^ ")"; out wc ];
  line "endmodule";
  Buffer.contents b

(* Every instance of [design] below the top, at any depth. *)
let instances (design : V.Elaborate.design) : V.Design.tree list =
  let top = V.Design.instance_tree design in
  List.rev
    (V.Design.fold_tree
       (fun acc (t : V.Design.tree) -> if t == top then acc else t :: acc)
       [] top)

(* Member lists over a generated design: [ones] before [zeros] and
   [zeros] before [ones], so the two constants are first allocated by
   different members, then [n] random picks of two to four instances,
   repeats allowed. *)
let generated_clusters st (design : V.Elaborate.design) ~n :
    V.Design.tree list list =
  let all = Array.of_list (instances design) in
  let named m =
    List.find (fun (t : V.Design.tree) -> t.module_name = m) (Array.to_list all)
  in
  let pick () = all.(Random.State.int st (Array.length all)) in
  [ named "ones"; named "zeros" ]
  :: [ named "zeros"; pick (); named "ones"; pick () ]
  :: List.init n (fun _ -> List.init (2 + Random.State.int st 3) (fun _ -> pick ()))

(* ---------- the differential ---------- *)

let bytes (c : N.Circuit.t) = Marshal.to_string c []

type tally = { mutable same : int; mutable raised : int }

(* Compare the splice of [members] with the whole cluster at [k].
   Pieces come from [pieces], one per module, so members of one module
   share a piece as they share a stage entry. *)
let compare_cluster (tally : tally) ~label design ~k pieces
    (members : V.Design.tree list) =
  let piece (m : V.Design.tree) =
    match Hashtbl.find_opt pieces m.module_name with
    | Some p -> p
    | None ->
      let p =
        match
          let netlist =
            A.Characterize.cluster_netlist design (A.Clustering.make_cluster design [ m ])
          in
          (netlist, N.Lutmap.map ~k netlist)
        with
        | p -> Ok p
        | exception e -> Error e
      in
      Hashtbl.add pieces m.module_name p;
      p
  in
  let cfg = { C.Flow_config.default with C.Flow_config.lut_inputs = k } in
  (* in the given order, which [Clustering.make_cluster] would sort by
     path: the splice must follow any member order *)
  let cluster = { A.Clustering.members; io_pins = 0; key = "" } in
  let whole = match A.Characterize.cluster_circuit design cfg cluster with
    | c -> Some c | exception _ -> None
  in
  let name () =
    Printf.sprintf "%s k=%d %s" label k
      (String.concat "+"
         (List.map (fun (m : V.Design.tree) -> m.inst_name) members))
  in
  match (List.map (fun m -> Result.to_option (piece m)) members, whole) with
  | pieces, whole when List.exists Option.is_none pieces ->
    if Option.is_some whole then
      Alcotest.failf "%s: a piece raised, the whole did not" (name ());
    tally.raised <- tally.raised + 1
  | _, None -> Alcotest.failf "%s: the whole raised, no piece did" (name ())
  | pieces, Some whole ->
    if bytes (A.Characterize.splice design members (List.map Option.get pieces))
       <> bytes whole
    then Alcotest.failf "%s: the splice differs from the whole mapping" (name ());
    tally.same <- tally.same + 1

(* the multi-member clusters of a paper design under both configurations,
   one per identity *)
let paper_clusters (b : B.benchmark) design : V.Design.tree list list =
  let df = Alice_analysis.Dataflow.build design in
  let keyer = A.Characterize.keyer design (B.config1 b) in
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun cfg -> A.Clustering.run df cfg (A.Filtering.run df cfg))
    [ B.config1 b; B.config2 b ]
  |> List.filter_map (fun (c : A.Clustering.cluster) ->
         let key = keyer c in
         if List.length c.A.Clustering.members < 2 || Hashtbl.mem seen key then None
         else begin
           Hashtbl.add seen key ();
           Some c.A.Clustering.members
         end)

let test_paper_designs () =
  let tally = { same = 0; raised = 0 } in
  List.iter
    (fun (name, ks) ->
      let b = Option.get (B.find name) in
      let design = B.elaborate b in
      let clusters = paper_clusters b design in
      List.iter
        (fun k ->
          let pieces = Hashtbl.create 16 in
          List.iter (compare_cluster tally ~label:name design ~k pieces) clusters)
        ks)
    (List.map (fun n -> (n, [ 2; 3; 4; 5; 6 ]))
       [ "GCD"; "SASC"; "USB_PHY"; "FIR"; "IIR"; "SHA256" ]
    @ [ ("DES3", [ 4 ]); ("SOC", [ 4 ]) ]);
  Alcotest.(check (pair int int)) "(spliced, raised on both paths)" (753, 57)
    (tally.same, tally.raised)

let test_generated_designs () =
  let tally = { same = 0; raised = 0 } in
  let shapes = Hashtbl.create 8 in
  let saw shape = Hashtbl.replace shapes shape () in
  for seed = 1 to 24 do
    let design =
      V.Elaborate.elaborate ~top:"top" (V.Parser.parse (generated_source seed))
    in
    let st = Random.State.make [| 0xc105; seed |] in
    List.iter
      (fun members ->
        let modules = List.map (fun (m : V.Design.tree) -> m.module_name) members in
        if List.length (List.sort_uniq compare modules) < List.length modules then
          saw "one module twice";
        List.iter
          (fun (m : V.Design.tree) ->
            let em = V.Elaborate.find_emodule design m.module_name in
            let has dir =
              List.exists (fun (p : V.Elaborate.eport) -> p.dir = dir) em.em_ports
            in
            if not (has V.Ast.Input) then saw "a member with no input";
            if not (has V.Ast.Output) then saw "a member with no output";
            if em.em_always = [] && em.em_instances = [] then
              saw "a member with no register";
            if m.children <> [] then saw "nested instances";
            if m.module_name <> m.orig_module_name then saw "a specialization")
          members;
        List.iter
          (fun k ->
            compare_cluster tally ~label:(Printf.sprintf "seed %d" seed) design ~k
              (Hashtbl.create 16) members)
          [ 2; 3; 4; 5; 6 ])
      (generated_clusters st design ~n:8)
  done;
  Alcotest.(check (list string)) "shapes covered"
    [ "a member with no input"; "a member with no output";
      "a member with no register"; "a specialization"; "nested instances";
      "one module twice" ]
    (List.sort compare (List.of_seq (Hashtbl.to_seq_keys shapes)));
  Alcotest.(check (pair int int)) "(spliced, raised on both paths)" (1164, 36)
    (tally.same, tally.raised)

(* ---------- diagnostics of failed clusters ---------- *)

(* GCD under cfg1 at k = 2: 16 of its 29 clusters hold a 3-input mux no
   2-LUT covers. A multi-member cluster's message names the net of its
   whole netlist, as it did before pieces existed. *)
let k2_failures =
  [ ("u_mux_a", 131); ("u_out", 106); ("u_reg_a", 106); ("u_reg_b", 106);
    ("u_shift", 84); ("u_bz+u_shift", 165); ("u_ctrl+u_shift", 111);
    ("u_ctrl+u_reg_b", 133); ("u_bz+u_reg_a", 187); ("u_ctrl+u_reg_a", 133);
    ("u_bz+u_out", 187); ("u_ctrl+u_out", 133); ("u_ctrl+u_mux_a", 159);
    ("u_ctrl+u_bz+u_out", 214); ("u_ctrl+u_bz+u_reg_a", 214);
    ("u_ctrl+u_bz+u_shift", 192) ]

let test_k2_diagnostics () =
  let config = { (B.config1 B.gcd) with C.Flow_config.lut_inputs = 2 } in
  let flow =
    A.Flow.run_request
      (A.Flow.request ~config (A.Flow.Text { text = B.gcd.B.source; file = Some "gcd.v" }))
  in
  Alcotest.(check int) "clusters" 29 (List.length flow.A.Flow.characterized);
  Alcotest.(check (list (triple string string (list (pair string string)))))
    "failed diagnostics"
    (List.map
       (fun (cluster, net) ->
         ( "E0902",
           Printf.sprintf
             "invalid argument: Lutmap.map: no cut of at most 2 leaves covers \
              the 3-input gate driving net %d"
             net,
           [ ("cluster", cluster) ] ))
       k2_failures)
    (List.filter_map
       (fun (c : A.Characterize.characterization) ->
         match c.A.Characterize.outcome with
         | A.Characterize.Failed d -> Some (d.D.code, d.D.message, d.D.context)
         | A.Characterize.Implemented _ | A.Characterize.Infeasible _
         | A.Characterize.Skipped _ -> None)
       flow.A.Flow.characterized)

let tests =
  [ Alcotest.test_case "paper clusters splice exactly" `Quick test_paper_designs;
    Alcotest.test_case "generated clusters splice exactly" `Quick
      test_generated_designs;
    Alcotest.test_case "k = 2 diagnostics name the whole cluster" `Quick
      test_k2_diagnostics ]
