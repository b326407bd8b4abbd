(* CDCL solver and Tseitin encoding tests. *)

module N = Alice_netlist
module S = Alice_sat
module V = Alice_verilog

let test_trivial () =
  let f = S.Cnf.create () in
  let a = S.Cnf.fresh_var f in
  S.Cnf.add_clause f [ a ];
  (match S.Solver.solve f with
  | S.Solver.Sat m -> Alcotest.(check bool) "a true" true m.(a)
  | S.Solver.Unsat -> Alcotest.fail "sat expected"
  | S.Solver.Unknown -> Alcotest.fail "unbudgeted solve returned Unknown");
  S.Cnf.add_clause f [ -a ];
  (match S.Solver.solve f with
  | S.Solver.Unsat -> ()
  | S.Solver.Sat _ -> Alcotest.fail "unsat expected"
  | S.Solver.Unknown -> Alcotest.fail "unbudgeted solve returned Unknown")

let test_pigeonhole () =
  (* 3 pigeons into 2 holes: classic small UNSAT instance *)
  let f = S.Cnf.create () in
  let v = Array.init 3 (fun _ -> Array.init 2 (fun _ -> S.Cnf.fresh_var f)) in
  for p = 0 to 2 do
    S.Cnf.add_clause f [ v.(p).(0); v.(p).(1) ]
  done;
  for h = 0 to 1 do
    for p1 = 0 to 2 do
      for p2 = p1 + 1 to 2 do
        S.Cnf.add_clause f [ -v.(p1).(h); -v.(p2).(h) ]
      done
    done
  done;
  match S.Solver.solve f with
  | S.Solver.Unsat -> ()
  | S.Solver.Sat _ -> Alcotest.fail "pigeonhole must be unsat"
  | S.Solver.Unknown -> Alcotest.fail "unbudgeted solve returned Unknown"

let test_assumptions () =
  let f = S.Cnf.create () in
  let a = S.Cnf.fresh_var f and b = S.Cnf.fresh_var f in
  S.Cnf.add_clause f [ a; b ];
  (match S.Solver.solve ~assumptions:[ -a ] f with
  | S.Solver.Sat m -> Alcotest.(check bool) "b forced" true m.(b)
  | S.Solver.Unsat -> Alcotest.fail "sat expected"
  | S.Solver.Unknown -> Alcotest.fail "unbudgeted solve returned Unknown");
  match S.Solver.solve ~assumptions:[ -a; -b ] f with
  | S.Solver.Unsat -> ()
  | S.Solver.Sat _ -> Alcotest.fail "unsat expected"
  | S.Solver.Unknown -> Alcotest.fail "unbudgeted solve returned Unknown"

(* random 3-SAT vs brute force *)
let brute_force nvars clauses =
  let rec try_assign model v =
    if v > nvars then
      List.for_all
        (fun c -> List.exists (fun l -> if l > 0 then model.(l) else not model.(-l)) c)
        clauses
    else begin
      model.(v) <- false;
      if try_assign model (v + 1) then true
      else begin
        model.(v) <- true;
        try_assign model (v + 1)
      end
    end
  in
  try_assign (Array.make (nvars + 1) false) 1

let fuzz_prop =
  QCheck.Test.make ~count:400 ~name:"cdcl agrees with brute force"
    QCheck.(make Gen.(pair (int_range 3 10) (int_range 2 30)))
    (fun (nvars, nclauses) ->
      let st = Random.State.make [| nvars; nclauses |] in
      let clauses =
        List.init nclauses (fun _ ->
            let len = 1 + Random.State.int st 3 in
            List.init len (fun _ ->
                let v = 1 + Random.State.int st nvars in
                if Random.State.bool st then v else -v))
      in
      let f = S.Cnf.create () in
      for _ = 1 to nvars do ignore (S.Cnf.fresh_var f) done;
      List.iter (S.Cnf.add_clause f) clauses;
      match (S.Solver.solve f, brute_force nvars clauses) with
      | S.Solver.Sat model, true ->
        (* verify the model, not just agreement *)
        List.for_all
          (fun c -> List.exists (fun l -> if l > 0 then model.(l) else not model.(-l)) c)
          clauses
      | S.Solver.Unsat, false -> true
      | S.Solver.Sat _, false | S.Solver.Unsat, true -> false
      | S.Solver.Unknown, _ -> false)

(* Tseitin: circuit equivalence as UNSAT of a difference miter *)
let test_tseitin_miter () =
  let build src = N.Synth.synthesize (V.Elaborate.elaborate (V.Parser.parse src)) in
  (* two structurally different implementations of the same function *)
  let c1 = build "module m (input [3:0] a, input [3:0] b, output [3:0] y); assign y = a + b; endmodule" in
  let c2 = build "module m (input [3:0] a, input [3:0] b, output [3:0] y); assign y = (a ^ b) + ((a & b) << 1); endmodule" in
  let f = S.Cnf.create () in
  let m1 = (S.Tseitin.encode_copy f c1 ~share:(fun _ -> None) : int array) in
  (* share inputs between the copies *)
  let share =
    let tbl = Hashtbl.create 16 in
    List.iter2
      (fun (_, nets1) (_, nets2) ->
        Array.iteri (fun i n2 -> Hashtbl.replace tbl n2 m1.(nets1.(i))) nets2)
      c1.N.Circuit.inputs c2.N.Circuit.inputs;
    fun n -> Hashtbl.find_opt tbl n
  in
  let m2 = S.Tseitin.encode_copy f c2 ~share in
  let y1 = Option.get (N.Circuit.find_output c1 "y") in
  let y2 = Option.get (N.Circuit.find_output c2 "y") in
  let diffs =
    Array.to_list
      (Array.mapi
         (fun i n1 ->
           let d = S.Cnf.fresh_var f in
           S.Cnf.encode_xor f ~out:d ~a:m1.(n1) ~b:m2.(y2.(i));
           d)
         y1)
  in
  S.Cnf.add_clause f diffs;
  (match S.Solver.solve f with
  | S.Solver.Unsat -> ()
  | S.Solver.Sat _ -> Alcotest.fail "equivalent circuits: miter must be unsat"
  | S.Solver.Unknown -> Alcotest.fail "unbudgeted solve returned Unknown");
  (* now a buggy variant must yield SAT *)
  let c3 = build "module m (input [3:0] a, input [3:0] b, output [3:0] y); assign y = a + b + 4'h1; endmodule" in
  let f2 = S.Cnf.create () in
  let n1 = S.Tseitin.encode_copy f2 c1 ~share:(fun _ -> None) in
  let share2 =
    let tbl = Hashtbl.create 16 in
    List.iter2
      (fun (_, nets1) (_, nets3) ->
        Array.iteri (fun i n3 -> Hashtbl.replace tbl n3 n1.(nets1.(i))) nets3)
      c1.N.Circuit.inputs c3.N.Circuit.inputs;
    fun n -> Hashtbl.find_opt tbl n
  in
  let n3 = S.Tseitin.encode_copy f2 c3 ~share:share2 in
  let y3 = Option.get (N.Circuit.find_output c3 "y") in
  let diffs2 =
    Array.to_list
      (Array.mapi
         (fun i net1 ->
           let d = S.Cnf.fresh_var f2 in
           S.Cnf.encode_xor f2 ~out:d ~a:n1.(net1) ~b:n3.(y3.(i));
           d)
         y1)
  in
  S.Cnf.add_clause f2 diffs2;
  match S.Solver.solve f2 with
  | S.Solver.Sat _ -> ()
  | (S.Solver.Unsat | S.Solver.Unknown) ->
    Alcotest.fail "different circuits: miter must be sat"

(* Equiv counterexamples carry every bit of a wide port: two 128-bit
   buffers that differ in output bit [i] must report y in both copies
   with exactly that bit apart. Packing ports into an int garbled bit
   62 into the sign, dropped bit 63 and folded 64 and 100 onto 0 and 36 *)
let test_equiv_wide_counterexample () =
  let build src =
    N.Synth.synthesize (V.Elaborate.elaborate (V.Parser.parse src))
  in
  let buffer =
    build "module m (input [127:0] a, output [127:0] y); assign y = a; endmodule"
  in
  List.iter
    (fun i ->
      let flipped =
        build
          (Printf.sprintf
             "module m (input [127:0] a, output [127:0] y); assign y = \
              {a[127:%d], ~a[%d], a[%d:0]}; endmodule"
             (i + 1) i (i - 1))
      in
      match S.Equiv.check buffer flipped with
      | S.Equiv.Equivalent ->
        Alcotest.failf "bit %d: a one-bit difference was not found" i
      | S.Equiv.Different cex ->
        let line = Format.asprintf "%a" S.Equiv.pp_counterexample cex in
        let value part =
          String.sub part
            (String.index part '=' + 1)
            (String.length part - String.index part '=' - 1)
        in
        let a, ya, yb =
          match String.split_on_char ';' line with
          | [ a; ya; yb ] -> (value a, value ya, value yb)
          | _ -> Alcotest.failf "bit %d: unexpected rendering %S" i line
        in
        let label what = Printf.sprintf "bit %d: %s" i what in
        Alcotest.(check int) (label "a has 128 bits") 128 (String.length a);
        Alcotest.(check string) (label "copy a buffers the input") a ya;
        Alcotest.(check int) (label "copy b has 128 bits") 128
          (String.length yb);
        List.iteri
          (fun k (ca, cb) ->
            (* MSB first: port bit j is character 127 - j *)
            Alcotest.(check bool)
              (label (Printf.sprintf "character %d differs" k))
              (k = 127 - i) (ca <> cb))
          (List.combine
             (List.of_seq (String.to_seq ya))
             (List.of_seq (String.to_seq yb))))
    [ 62; 63; 64; 100 ]

(* property: Tseitin encoding agrees with simulation on random inputs *)
let tseitin_sim_prop =
  QCheck.Test.make ~count:30 ~name:"tseitin encoding matches simulation"
    QCheck.(make Gen.(pair (int_range 0 255) (int_range 0 255)))
    (fun (av, bv) ->
      let src =
        "module m (input [7:0] a, input [7:0] b, output [7:0] y); assign y = (a | b) - (a & b); endmodule"
      in
      let c = N.Synth.synthesize (V.Elaborate.elaborate (V.Parser.parse src)) in
      let sim = N.Simulate.create c in
      N.Simulate.set_input sim "a" av;
      N.Simulate.set_input sim "b" bv;
      N.Simulate.eval sim;
      let expected = N.Simulate.read_output sim "y" in
      let enc = S.Tseitin.encode c in
      let f = enc.S.Tseitin.cnf in
      let var n = enc.S.Tseitin.net_var.(n) in
      let assume_input name v =
        let nets = Option.get (N.Circuit.find_input c name) in
        Array.to_list
          (Array.mapi
             (fun i n -> if (v lsr i) land 1 = 1 then var n else -var n)
             nets)
      in
      let assumptions = assume_input "a" av @ assume_input "b" bv in
      match S.Solver.solve ~assumptions f with
      | S.Solver.Unsat | S.Solver.Unknown -> false
      | S.Solver.Sat model ->
        let y = Option.get (N.Circuit.find_output c "y") in
        let got = ref 0 in
        Array.iteri
          (fun i n -> if S.Solver.model_value model (var n) then got := !got lor (1 lsl i))
          y;
        !got = expected)

let tests =
  [ Alcotest.test_case "trivial" `Quick test_trivial;
    Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
    Alcotest.test_case "assumptions" `Quick test_assumptions;
    Alcotest.test_case "tseitin miter" `Quick test_tseitin_miter;
    Alcotest.test_case "equiv counterexample of 128-bit ports" `Quick
      test_equiv_wide_counterexample;
    QCheck_alcotest.to_alcotest fuzz_prop;
    QCheck_alcotest.to_alcotest tseitin_sim_prop ]
