(* Algorithm 2's bitset kernel against the pair loop it replaced
   ([Clustering_oracle]): the same clusters in the same order, with the
   same keys, pin counts and members, on every paper design and the SoC
   under both configurations, three pin budgets and both dependence
   notions, and on seeded generated designs whose candidates straddle
   the kernel's 62-bit word boundaries. *)

module V = Alice_verilog
module A = Alice
module B = Alice_benchmarks.Suite
module C = Alice_config
module Df = Alice_analysis.Dataflow

(* everything a cluster carries, in list order *)
let render (clusters : A.Clustering.cluster list) : string list =
  List.map
    (fun (c : A.Clustering.cluster) ->
      Printf.sprintf "%s pins=%d members=%s" c.A.Clustering.key
        c.A.Clustering.io_pins
        (String.concat ","
           (List.map (fun (m : V.Design.tree) -> m.path) c.A.Clustering.members)))
    clusters

let check_against_oracle ~label (df : Df.t) (cfg : C.Flow_config.t) =
  let filtering = A.Filtering.run df cfg in
  Alcotest.(check (list string)) label
    (render (Clustering_oracle.run df cfg filtering))
    (render (A.Clustering.run df cfg filtering))

(* ---------- the 16 benchmark x configuration pairs ---------- *)

let test_benchmarks () =
  List.iter
    (fun (b : B.benchmark) ->
      let df = Df.build (B.elaborate b) in
      List.iter
        (fun (cname, (cfg : C.Flow_config.t)) ->
          List.iter
            (fun pins ->
              List.iter
                (fun transitive_independence ->
                  check_against_oracle
                    ~label:
                      (Printf.sprintf "%s %s pins=%d transitive=%b" b.B.name
                         cname pins transitive_independence)
                    df
                    { cfg with
                      C.Flow_config.max_io_pins = pins;
                      transitive_independence })
                [ false; true ])
            (List.sort_uniq compare [ 48; cfg.C.Flow_config.max_io_pins; 128 ]))
        [ ("cfg1", B.config1 b); ("cfg2", B.config2 b) ])
    (B.all @ [ B.soc ])

(* ---------- generated designs across word boundaries ---------- *)

(* [n] instances u000.. of two leaf modules under one top, so candidate
   [i] in path order is instance [i]. A [wide] leaf (44 pins) fits the
   48-pin budget only alone; [slim] leaves (16 pins) cluster up to three
   at a time. The slim ones sit around index 62 (and 124), the first
   index of the kernel's second (third) word, one of them last; each
   instance reads a top input or an earlier instance's output, and the
   last one reads a slim one below the boundary. *)
let generated_source ~(seed : int) ~(n : int) : string =
  let st = Random.State.make [| seed; n |] in
  let slim = Array.make n false in
  let window_lo = max 0 (min 52 (n - 14)) in
  for _ = 1 to 9 do
    slim.(window_lo + Random.State.int st (n - window_lo)) <- true
  done;
  slim.(n - 1) <- true;
  slim.(window_lo) <- true;
  let width i = if slim.(i) then 8 else 22 in
  let b = Buffer.create 8192 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "module slim (input [7:0] a, output [7:0] y); assign y = a + 8'd1; endmodule";
  line "module wide (input [21:0] a, output [21:0] y); assign y = ~a; endmodule";
  line "module top (input [21:0] x, %s);"
    (String.concat ", "
       (List.init n (fun i -> Printf.sprintf "output [%d:0] o%03d" (width i - 1) i)));
  for i = 0 to n - 1 do
    line "  wire [%d:0] w%03d;" (width i - 1) i
  done;
  (* [w] of instance [j] at instance [i]'s input width *)
  let read j i =
    let wj = width j and wi = width i in
    if wj >= wi then Printf.sprintf "w%03d[%d:0]" j (wi - 1)
    else Printf.sprintf "{x[%d:0], w%03d}" (wi - wj - 1) j
  in
  for i = 0 to n - 1 do
    let input =
      if i = n - 1 then read window_lo i
      else if i > 0 && Random.State.int st 3 > 0 then
        read (Random.State.int st i) i
      else Printf.sprintf "x[%d:0]" (width i - 1)
    in
    line "  %s u%03d (.a(%s), .y(w%03d));"
      (if slim.(i) then "slim" else "wide")
      i input i;
    line "  assign o%03d = w%03d;" i i
  done;
  line "endmodule";
  Buffer.contents b

let test_generated () =
  List.iter
    (fun (n, seeds) ->
      List.iter
        (fun seed ->
          let df =
            Df.build
              (V.Elaborate.elaborate ~top:"top"
                 (V.Parser.parse (generated_source ~seed ~n)))
          in
          let cfg = { C.Flow_config.default with C.Flow_config.max_io_pins = 48 } in
          Alcotest.(check int)
            (Printf.sprintf "n=%d seed=%d: every instance a candidate" n seed)
            n
            (List.length
               (A.Filtering.candidate_instances (A.Filtering.run df cfg)));
          List.iter
            (fun transitive_independence ->
              check_against_oracle
                ~label:
                  (Printf.sprintf "n=%d seed=%d transitive=%b" n seed
                     transitive_independence)
                df
                { cfg with C.Flow_config.transitive_independence })
            [ false; true ])
        seeds)
    [ (61, [ 1; 2 ]); (62, [ 3; 4 ]); (63, [ 5; 6 ]); (64, [ 7; 8 ]);
      (124, [ 9; 10 ]); (125, [ 11; 12 ]) ]

let tests =
  [ Alcotest.test_case "bitset kernel = pair loop on the benchmarks" `Quick
      test_benchmarks;
    Alcotest.test_case "bitset kernel = pair loop across word boundaries"
      `Quick test_generated ]
