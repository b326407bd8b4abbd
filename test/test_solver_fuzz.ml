(* Differential fuzz suite for the incremental SAT engine.

   Every case is seeded and deterministic. The ground truths are (a) a
   brute-force enumerator for small variable counts and (b) the
   single-shot solver itself, so the incremental session is checked both
   against an independent oracle and against the reference path it must
   agree with verdict-for-verdict. *)

module S = Alice_sat

let solver_result =
  Alcotest.testable
    (fun fmt -> function
      | S.Solver.Sat _ -> Format.pp_print_string fmt "Sat"
      | S.Solver.Unsat -> Format.pp_print_string fmt "Unsat"
      | S.Solver.Unknown -> Format.pp_print_string fmt "Unknown")
    (fun a b ->
      match (a, b) with
      | S.Solver.Sat _, S.Solver.Sat _
      | S.Solver.Unsat, S.Solver.Unsat
      | S.Solver.Unknown, S.Solver.Unknown -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Random CNF generation: 3-SAT densities straddling the ~4.26 phase
   transition, plus unit and duplicate-literal edge cases.             *)
(* ------------------------------------------------------------------ *)

let random_clause st nvars =
  (* mostly ternary (3-SAT), some units and binaries, occasional long
     clauses; ~1 in 8 clauses duplicates one of its literals *)
  let len =
    match Random.State.int st 10 with
    | 0 -> 1
    | 1 | 2 -> 2
    | 9 -> 4 + Random.State.int st 3
    | _ -> 3
  in
  let lit () =
    let v = 1 + Random.State.int st nvars in
    if Random.State.bool st then v else -v
  in
  let base = List.init len (fun _ -> lit ()) in
  if Random.State.int st 8 = 0 then
    match base with l :: _ -> l :: base | [] -> base
  else base

let random_cnf st =
  let nvars = 3 + Random.State.int st 10 in
  (* clause/variable ratios from well under to well over the 3-SAT phase
     transition, so the pool mixes easy-sat, hard, and easy-unsat *)
  let ratio = 2.0 +. (Random.State.float st 4.0) in
  let nclauses = max 1 (int_of_float (ratio *. float_of_int nvars)) in
  (nvars, List.init nclauses (fun _ -> random_clause st nvars))

let build nvars clauses =
  let f = S.Cnf.create () in
  for _ = 1 to nvars do
    ignore (S.Cnf.fresh_var f)
  done;
  List.iter (S.Cnf.add_clause f) clauses;
  f

let satisfies model clauses =
  List.for_all
    (fun c ->
      List.exists (fun l -> if l > 0 then model.(l) else not model.(-l)) c)
    clauses

let brute_force nvars clauses =
  let rec try_assign model v =
    if v > nvars then satisfies model clauses
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

(* ------------------------------------------------------------------ *)
(* (a)+(b): Sat models satisfy all clauses; single-shot vs incremental
   verdicts agree; both agree with brute force.                        *)
(* ------------------------------------------------------------------ *)

let test_differential () =
  for seed = 0 to 249 do
    let st = Random.State.make [| 0xA11CE; seed |] in
    let nvars, clauses = random_cnf st in
    let truth = brute_force nvars clauses in
    let name what =
      Printf.sprintf "seed %d (%d vars, %d clauses): %s" seed nvars
        (List.length clauses) what
    in
    (* single-shot *)
    (match S.Solver.solve (build nvars clauses) with
    | S.Solver.Sat model ->
      Alcotest.(check bool) (name "single-shot sat is right") true truth;
      Alcotest.(check bool)
        (name "single-shot model satisfies clauses")
        true
        (satisfies model clauses)
    | S.Solver.Unsat ->
      Alcotest.(check bool) (name "single-shot unsat is right") false truth
    | S.Solver.Unknown -> Alcotest.fail (name "unbudgeted Unknown"));
    (* incremental session over the same formula *)
    let session = S.Solver.Incremental.create () in
    List.iter (S.Solver.Incremental.add_clause session) clauses;
    S.Solver.Incremental.ensure_vars session nvars;
    match S.Solver.Incremental.solve session with
    | S.Solver.Sat model ->
      Alcotest.(check bool) (name "incremental sat is right") true truth;
      Alcotest.(check bool)
        (name "incremental model satisfies clauses")
        true
        (satisfies model clauses)
    | S.Solver.Unsat ->
      Alcotest.(check bool) (name "incremental unsat is right") false truth
    | S.Solver.Unknown -> Alcotest.fail (name "unbudgeted Unknown")
  done

(* ------------------------------------------------------------------ *)
(* (c): solving under assumptions agrees with solving CNF + units, and
   an Unsat-under-assumptions session stays usable.                    *)
(* ------------------------------------------------------------------ *)

let test_assumptions_vs_units () =
  for seed = 0 to 149 do
    let st = Random.State.make [| 0xBEEF; seed |] in
    let nvars, clauses = random_cnf st in
    let n_assumps = 1 + Random.State.int st 3 in
    let assumptions =
      List.init n_assumps (fun _ ->
          let v = 1 + Random.State.int st nvars in
          if Random.State.bool st then v else -v)
    in
    let name what = Printf.sprintf "seed %d: %s" seed what in
    let expected =
      S.Solver.solve (build nvars (List.map (fun l -> [ l ]) assumptions @ clauses))
    in
    let got = S.Solver.solve ~assumptions (build nvars clauses) in
    Alcotest.check solver_result
      (name "single-shot assumptions = units")
      expected got;
    (* same query through a session, twice: the first answer must not
       poison the second (assumptions are retracted, not asserted) *)
    let session = S.Solver.Incremental.create () in
    List.iter (S.Solver.Incremental.add_clause session) clauses;
    S.Solver.Incremental.ensure_vars session nvars;
    let s1 = S.Solver.Incremental.solve ~assumptions session in
    Alcotest.check solver_result (name "session assumptions = units") expected
      s1;
    let s2 = S.Solver.Incremental.solve ~assumptions session in
    Alcotest.check solver_result (name "repeat query agrees") expected s2;
    (* and with assumptions dropped, the verdict is the base formula's *)
    let base = S.Solver.solve (build nvars clauses) in
    Alcotest.check solver_result
      (name "retraction restores the base formula")
      base
      (S.Solver.Incremental.solve session)
  done

(* ------------------------------------------------------------------ *)
(* (d): interleaved add_clause/solve agrees with a fresh solver on the
   accumulated formula at every step.                                  *)
(* ------------------------------------------------------------------ *)

let test_interleaved () =
  for seed = 0 to 99 do
    let st = Random.State.make [| 0xCAFE; seed |] in
    let nvars, clauses = random_cnf st in
    let session = S.Solver.Incremental.create () in
    S.Solver.Incremental.ensure_vars session nvars;
    let accumulated = ref [] in
    let rec feed chunks remaining =
      match remaining with
      | [] -> ()
      | _ ->
        let k = min (List.length remaining) (1 + Random.State.int st 5) in
        let chunk = List.filteri (fun i _ -> i < k) remaining in
        let rest = List.filteri (fun i _ -> i >= k) remaining in
        List.iter
          (fun c ->
            S.Solver.Incremental.add_clause session c;
            accumulated := c :: !accumulated)
          chunk;
        let expected = S.Solver.solve (build nvars !accumulated) in
        let got = S.Solver.Incremental.solve session in
        Alcotest.check solver_result
          (Printf.sprintf "seed %d chunk %d agrees with fresh solver" seed
             chunks)
          expected got;
        (* a session that went Unsat stays Unsat: adding clauses to an
           unsatisfiable formula cannot rescue it *)
        if got <> S.Solver.Unsat then feed (chunks + 1) rest
    in
    feed 0 clauses
  done

(* the attached-CNF path must behave identically to hand-fed clauses *)
let test_attach_sync () =
  for seed = 0 to 49 do
    let st = Random.State.make [| 0xD1CE; seed |] in
    let nvars, clauses = random_cnf st in
    let f = S.Cnf.create () in
    for _ = 1 to nvars do
      ignore (S.Cnf.fresh_var f)
    done;
    let session = S.Solver.Incremental.create () in
    S.Solver.Incremental.attach session f;
    let accumulated = ref [] in
    List.iteri
      (fun i c ->
        S.Cnf.add_clause f c;
        accumulated := c :: !accumulated;
        (* solve at a few interleaving points, not after every clause *)
        if i mod 7 = seed mod 7 then begin
          let expected = S.Solver.solve (build nvars !accumulated) in
          let got = S.Solver.Incremental.solve session in
          Alcotest.check solver_result
            (Printf.sprintf "seed %d: synced session agrees at clause %d" seed
               i)
            expected got
        end)
      clauses;
    let expected = S.Solver.solve (build nvars !accumulated) in
    Alcotest.check solver_result
      (Printf.sprintf "seed %d: synced session agrees at the end" seed)
      expected
      (S.Solver.Incremental.solve session)
  done

(* fresh variables introduced mid-session get correct defaults *)
let test_growing_vars () =
  let session = S.Solver.Incremental.create () in
  S.Solver.Incremental.add_clause session [ 1; 2 ];
  (match S.Solver.Incremental.solve ~assumptions:[ -1 ] session with
  | S.Solver.Sat m ->
    Alcotest.(check bool) "2 forced" true (S.Solver.model_value m 2)
  | _ -> Alcotest.fail "sat expected");
  (* a variable far beyond the current capacity *)
  S.Solver.Incremental.add_clause session [ -2; 997 ];
  S.Solver.Incremental.add_clause session [ -997; 3 ];
  (match S.Solver.Incremental.solve ~assumptions:[ -1 ] session with
  | S.Solver.Sat m ->
    Alcotest.(check bool) "chain propagates through fresh var" true
      (S.Solver.model_value m 997 && S.Solver.model_value m 3)
  | _ -> Alcotest.fail "sat expected");
  Alcotest.(check bool) "session saw the new variables" true
    (S.Solver.Incremental.nvars session >= 997)

(* ------------------------------------------------------------------ *)
(* Budget semantics: a tripped budget yields Unknown, never a wrong
   verdict — including mid-session after clause-DB reduction.          *)
(* ------------------------------------------------------------------ *)

(* pigeonhole (n+1 pigeons, n holes): UNSAT and needs real search *)
let pigeonhole_clauses n =
  let var p h = (p * n) + h + 1 in
  let at_least =
    List.init (n + 1) (fun p -> List.init n (fun h -> var p h))
  in
  let at_most =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun p1 ->
            List.filter_map
              (fun p2 ->
                if p2 > p1 then Some [ -var p1 h; -var p2 h ] else None)
              (List.init (n + 1) Fun.id))
          (List.init (n + 1) Fun.id))
      (List.init n Fun.id)
  in
  ((n + 1) * n, at_least @ at_most)

let test_budget_soundness () =
  let nvars, clauses = pigeonhole_clauses 5 in
  let f = build nvars clauses in
  (* sweep conflict budgets from trivially small to past the instance's
     cost; every verdict must be Unknown or the true Unsat *)
  let budgets = [ 1; 2; 5; 10; 50; 200; 1_000; 100_000 ] in
  List.iter
    (fun b ->
      match S.Solver.solve ~max_conflicts:b f with
      | S.Solver.Sat _ ->
        Alcotest.fail
          (Printf.sprintf "budget %d returned Sat on an unsat instance" b)
      | S.Solver.Unsat | S.Solver.Unknown -> ())
    budgets;
  List.iter
    (fun b ->
      match S.Solver.solve ~max_decisions:b f with
      | S.Solver.Sat _ ->
        Alcotest.fail
          (Printf.sprintf "decision budget %d returned Sat on unsat" b)
      | S.Solver.Unsat | S.Solver.Unknown -> ())
    budgets;
  (* an unbudgeted run concludes *)
  match S.Solver.solve f with
  | S.Solver.Unsat -> ()
  | _ -> Alcotest.fail "pigeonhole must be unsat"

let test_budget_mid_session () =
  (* a tiny reduce ceiling forces clause-DB reduction during the
     session; budgeted queries after reductions must stay sound *)
  let nvars, clauses = pigeonhole_clauses 5 in
  let session = S.Solver.Incremental.create ~reduce_base:32 () in
  List.iter (S.Solver.Incremental.add_clause session) clauses;
  S.Solver.Incremental.ensure_vars session nvars;
  let tripped = ref 0 in
  List.iter
    (fun b ->
      match S.Solver.Incremental.solve ~max_conflicts:b session with
      | S.Solver.Sat _ ->
        Alcotest.fail
          (Printf.sprintf "budget %d returned Sat on an unsat instance" b)
      | S.Solver.Unknown -> incr tripped
      | S.Solver.Unsat -> ())
    [ 3; 7; 15; 31; 63 ];
  (* the per-query budgets were small enough to trip at least once *)
  Alcotest.(check bool) "some query hit its budget" true (!tripped > 0);
  (* the same session, unbudgeted, still concludes correctly *)
  (match S.Solver.Incremental.solve session with
  | S.Solver.Unsat -> ()
  | _ -> Alcotest.fail "session must still conclude Unsat");
  let st = S.Solver.Incremental.stats session in
  Alcotest.(check bool) "reduction actually happened" true
    (st.S.Solver.Incremental.reduces > 0)

let test_conflicts_monotone () =
  let nvars, clauses = pigeonhole_clauses 4 in
  let session = S.Solver.Incremental.create () in
  List.iter (S.Solver.Incremental.add_clause session) clauses;
  S.Solver.Incremental.ensure_vars session nvars;
  let last = ref 0 in
  for i = 1 to 5 do
    let _r, per_call =
      S.Solver.Incremental.solve_stats ~max_conflicts:(10 * i) session
    in
    Alcotest.(check bool) "per-call conflicts are non-negative" true
      (per_call >= 0);
    let c = (S.Solver.Incremental.stats session).S.Solver.Incremental.conflicts in
    Alcotest.(check bool)
      (Printf.sprintf "session conflicts monotone at query %d" i)
      true (c >= !last);
    last := c
  done

(* ------------------------------------------------------------------ *)
(* Clause-DB reduction: a long session's learnt count stays under the
   reduce ceiling (regression for the list-based storage that never
   shrank).                                                            *)
(* ------------------------------------------------------------------ *)

let test_learnt_under_ceiling () =
  let nvars, clauses = pigeonhole_clauses 6 in
  let session = S.Solver.Incremental.create ~reduce_base:64 () in
  List.iter (S.Solver.Incremental.add_clause session) clauses;
  S.Solver.Incremental.ensure_vars session nvars;
  (* many budgeted queries against a hard instance: learnt clauses pile
     up and must be reduced, not hoarded *)
  for _ = 1 to 20 do
    ignore (S.Solver.Incremental.solve ~max_conflicts:400 session)
  done;
  let st = S.Solver.Incremental.stats session in
  Alcotest.(check bool) "reductions ran" true
    (st.S.Solver.Incremental.reduces > 0);
  Alcotest.(check bool) "clauses were dropped" true
    (st.S.Solver.Incremental.learnt_dropped > 0);
  Alcotest.(check bool)
    (Printf.sprintf "live learnt %d under ceiling %d"
       st.S.Solver.Incremental.learnt_live
       st.S.Solver.Incremental.learnt_ceiling)
    true
    (st.S.Solver.Incremental.learnt_live
    <= st.S.Solver.Incremental.learnt_ceiling);
  Alcotest.(check bool) "later queries reused learnt clauses" true
    (st.S.Solver.Incremental.learnt_reused > 0)

(* empty and contradictory clause edge cases *)
let test_edge_clauses () =
  (* duplicate literals collapse *)
  let s = S.Solver.Incremental.create () in
  S.Solver.Incremental.add_clause s [ 1; 1; 1 ];
  (match S.Solver.Incremental.solve s with
  | S.Solver.Sat m -> Alcotest.(check bool) "unit dedup" true m.(1)
  | _ -> Alcotest.fail "sat expected");
  (* tautologies constrain nothing *)
  S.Solver.Incremental.add_clause s [ 2; -2 ];
  S.Solver.Incremental.add_clause s [ -1 ];
  (match S.Solver.Incremental.solve s with
  | S.Solver.Unsat -> ()
  | _ -> Alcotest.fail "1 and -1 must contradict");
  (* a contradictory session stays Unsat under any assumptions *)
  (match S.Solver.Incremental.solve ~assumptions:[ 2 ] s with
  | S.Solver.Unsat -> ()
  | _ -> Alcotest.fail "contradiction is permanent");
  (* the empty clause *)
  let s2 = S.Solver.Incremental.create () in
  S.Solver.Incremental.add_clause s2 [];
  (match S.Solver.Incremental.solve s2 with
  | S.Solver.Unsat -> ()
  | _ -> Alcotest.fail "empty clause must be unsat");
  (* literal 0 is no variable: encoded as ¬x0 it kept a watch that never
     fired, and [1;0], [-1;0] (or [1;2;0], [-1], [-2]) answered Sat *)
  let rejects what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: literal 0 accepted" what
  in
  let s3 = S.Solver.Incremental.create () in
  rejects "clause [1;0]" (fun () -> S.Solver.Incremental.add_clause s3 [ 1; 0 ]);
  rejects "clause [1;2;0]" (fun () ->
      S.Solver.Incremental.add_clause s3 [ 1; 2; 0 ]);
  S.Solver.Incremental.add_clause s3 [ -1 ];
  S.Solver.Incremental.add_clause s3 [ -2 ];
  rejects "assumption 0" (fun () ->
      S.Solver.Incremental.solve ~assumptions:[ 0 ] s3);
  rejects "single-shot assumption 0" (fun () ->
      S.Solver.solve ~assumptions:[ 1; 0 ] (build 2 [ [ 1; 2 ] ]));
  (* a rejected clause leaves the session as it was *)
  match S.Solver.Incremental.solve s3 with
  | S.Solver.Sat m ->
    Alcotest.(check bool) "1 and 2 false" false (m.(1) || m.(2))
  | _ -> Alcotest.fail "sat expected after the rejected clauses"

(* ------------------------------------------------------------------ *)
(* Decision-level golden: every query's verdict, model and session
   counters, pinned. The differential cases above compare verdicts
   only, so a change in branching order (which variable, which phase,
   in what order) passes them; here it moves a decision count or a
   model. The values were recorded with branching by a linear scan over
   every variable, the reference the order heap must match decision for
   decision.                                                           *)
(* ------------------------------------------------------------------ *)

let model_digest m =
  let bits =
    String.init (Array.length m) (fun i -> if m.(i) then '1' else '0')
  in
  String.sub (Digest.to_hex (Digest.string bits)) 0 8

(* verdict, model digest, then the session's cumulative counters *)
let query_line s r =
  let st = S.Solver.Incremental.stats s in
  Printf.sprintf "%s c%d d%d p%d"
    (match r with
    | S.Solver.Sat m -> "sat " ^ model_digest m
    | S.Solver.Unsat -> "unsat"
    | S.Solver.Unknown -> "unknown")
    st.S.Solver.Incremental.conflicts st.S.Solver.Incremental.decisions
    st.S.Solver.Incremental.propagations

let ternary st nvars =
  let rec pick acc =
    if List.length acc = 3 then acc
    else
      let v = 1 + Random.State.int st nvars in
      if List.mem v acc then pick acc else pick (v :: acc)
  in
  List.map (fun v -> if Random.State.bool st then v else -v) (pick [])

(* six queries over a 3-SAT formula loaded in six chunks, ending near
   the phase transition, under random assumptions and sometimes a
   conflict budget; variables sometimes grow between queries. The
   session is fed three ways by [seed mod 3]: hand-fed from empty,
   presized with [create ~nvars], or attached to a CNF and synced *)
let golden_session seed =
  let st = Random.State.make [| 0x601D; seed |] in
  let nvars = ref (100 + Random.State.int st 80) in
  let ratio = 4.0 +. Random.State.float st 0.4 in
  let rounds = 6 in
  let total = int_of_float (ratio *. float_of_int !nvars) in
  let session, add, grow =
    match seed mod 3 with
    | 0 ->
      let s = S.Solver.Incremental.create () in
      (s, S.Solver.Incremental.add_clause s, fun _ -> ())
    | 1 ->
      let s = S.Solver.Incremental.create ~nvars:!nvars () in
      (s, S.Solver.Incremental.add_clause s, S.Solver.Incremental.ensure_vars s)
    | _ ->
      let f = S.Cnf.create () in
      ignore (S.Cnf.fresh_vars f !nvars);
      let s = S.Solver.Incremental.create () in
      S.Solver.Incremental.attach s f;
      ( s,
        S.Cnf.add_clause f,
        fun n -> ignore (S.Cnf.fresh_vars f (n - S.Cnf.var_count f)) )
  in
  List.init rounds (fun r ->
      if r > 0 && Random.State.int st 3 = 0 then begin
        nvars := !nvars + 4 + Random.State.int st 12;
        grow !nvars
      end;
      for _ = 1 to total / rounds do
        add (ternary st !nvars)
      done;
      let assumptions =
        List.init (Random.State.int st 4) (fun _ ->
            let v = 1 + Random.State.int st !nvars in
            if Random.State.bool st then v else -v)
      in
      let max_conflicts =
        if Random.State.int st 4 = 0 then Some (5 + Random.State.int st 60)
        else None
      in
      query_line session
        (S.Solver.Incremental.solve ~assumptions ?max_conflicts session))

let golden_sessions =
  [ (0,
     [ "sat 3b68b3d1 c1 d141 p172"; "sat 86ae2180 c1 d249 p338";
       "sat 90b34dcb c2 d333 p533"; "sat 6284f113 c3 d389 p744";
       "sat 5f53723c c313 d819 p12757"; "sat f416dfe9 c3148 d4211 p118917" ]);
    (1,
     [ "sat c4f3cbc1 c0 d86 p110"; "sat fd72c0a6 c0 d165 p234";
       "sat 9308c816 c0 d237 p358"; "sat 69d991dd c1 d310 p507";
       "sat 30b00280 c3 d380 p720"; "sat e773bc0d c5 d438 p998" ]);
    (2,
     [ "sat 64d4c934 c0 d135 p161"; "sat 98151846 c0 d244 p322";
       "sat 9871a50c c2 d316 p491"; "sat 72beb702 c6 d381 p787";
       "sat 9cd95eda c28 d476 p2049"; "sat ea86197b c52 d567 p3049" ]);
    (3,
     [ "sat 507d6623 c0 d121 p152"; "sat 0e30efc9 c0 d219 p304";
       "sat a526d61f c0 d294 p456"; "sat 13aaea7a c2 d351 p630";
       "sat 05e8d2d9 c22 d450 p1473"; "unknown c84 d537 p3690" ]);
    (4,
     [ "sat 5e66c240 c0 d86 p104"; "sat c5434e77 c0 d149 p215";
       "sat 1e79cb0f c1 d199 p329"; "sat 093b072d c4 d250 p539";
       "sat e64e2027 c11 d288 p827"; "sat fc5ded51 c161 d485 p4722" ]);
    (5,
     [ "sat fbe7d556 c1 d175 p209"; "sat 39c284d3 c1 d275 p354";
       "sat e2dfea13 c2 d355 p506"; "sat 5d77956d c6 d408 p704";
       "sat c223d9c9 c89 d541 p3480"; "unsat c1077 d1731 p33910" ]);
    (6,
     [ "sat f02414df c0 d118 p143"; "sat a1f30f46 c1 d229 p303";
       "sat 2bdde5e0 c1 d314 p446"; "sat 72fdc837 c5 d359 p658";
       "sat bc58410c c25 d417 p1316"; "sat 5c5b5ad0 c27 d464 p1523" ]);
    (7,
     [ "sat 1cdd0fbe c0 d136 p170"; "sat 9b762eef c0 d236 p340";
       "sat a5e60ad4 c0 d319 p510"; "sat 3e3e2452 c6 d407 p941";
       "sat c04bc2ff c29 d484 p2012"; "sat 286eac51 c2834 d3854 p100555" ]);
    (8,
     [ "sat 5ac962f0 c1 d136 p163"; "sat b5d0887e c1 d219 p298";
       "sat 64d446fd c2 d286 p461"; "sat ccd811a5 c7 d340 p760";
       "unknown c67 d421 p2734"; "unsat c647 d1086 p19255" ]);
    (9,
     [ "sat 153c21c4 c0 d143 p176"; "sat 4ef3b8f5 c0 d249 p357";
       "sat e086489d c0 d341 p541"; "sat e494797d c2 d406 p782";
       "sat 9dcb177e c23 d500 p1766"; "sat 66affea8 c495 d1142 p19414" ]);
    (10,
     [ "sat 99337303 c0 d134 p161"; "sat ac2cb40a c1 d249 p341";
       "sat 7ee40d1e c1 d356 p529"; "sat a4a41151 c1 d433 p717";
       "sat a842b9b1 c2 d499 p948"; "sat 3b3e3949 c23 d588 p2132" ]);
    (11,
     [ "sat cbcb1fa0 c0 d92 p105"; "sat 963b46a4 c0 d183 p225";
       "sat e32766d7 c0 d256 p345"; "sat b9749e84 c1 d314 p484";
       "sat 704c9fb0 c7 d375 p761"; "sat 8adc1c57 c11 d408 p1005" ]) ]

let test_golden_sessions () =
  List.iter
    (fun (seed, want) ->
      Alcotest.(check (list string))
        (Printf.sprintf "session %d: per-query verdict, model, counters" seed)
        want (golden_session seed))
    golden_sessions

(* pigeonhole 9 -> 8 on an empty session: 18k conflicts cross the 1e100
   activity rescale several times, where underflow can create ties *)
let test_golden_pigeonhole () =
  let _, clauses = pigeonhole_clauses 8 in
  let s = S.Solver.Incremental.create () in
  List.iter (S.Solver.Incremental.add_clause s) clauses;
  Alcotest.(check string) "php 9->8" "unsat c18461 d20772 p212498"
    (query_line s (S.Solver.Incremental.solve s))

(* rescale ties: probe variables 1..40, some bumped once (a conflict
   under assumptions), then ~24k conflicts of a pigeonhole gated behind
   [act] underflow the bumped activities to 0 — a tie with the
   never-bumped probes that only the index can break. The last query
   decides the probes under random ternary clauses, so breaking a tie
   wrongly moves its model and counters *)
let test_golden_rescale_ties () =
  let k = 40 in
  let st = Random.State.make [| 0x71E; 2 |] in
  let s = S.Solver.Incremental.create () in
  let g = k + 1 in
  S.Solver.Incremental.ensure_vars s g;
  for v = 1 to k do
    if Random.State.bool st then begin
      let x = S.Solver.Incremental.nvars s + 1 in
      S.Solver.Incremental.add_clause s [ -g; v; x ];
      S.Solver.Incremental.add_clause s [ -g; v; -x ];
      ignore (S.Solver.Incremental.solve ~assumptions:[ g; -v ] s)
    end
  done;
  let base = S.Solver.Incremental.nvars s in
  let act = base + 1 in
  let _, clauses = pigeonhole_clauses 8 in
  List.iter
    (fun c ->
      S.Solver.Incremental.add_clause s
        (-act :: List.map (fun l -> if l > 0 then l + act else l - act) c))
    clauses;
  ignore (S.Solver.Incremental.solve ~assumptions:[ act ] s);
  for _ = 1 to 2 * k do
    let lit () =
      let a = 1 + Random.State.int st k in
      if Random.State.bool st then a else -a
    in
    S.Solver.Incremental.add_clause s [ lit (); lit (); lit () ]
  done;
  Alcotest.(check string) "probe query" "sat f2e3e618 c24547 d27624 p288963"
    (query_line s (S.Solver.Incremental.solve ~assumptions:[ -act ] s))

let tests =
  [ Alcotest.test_case "differential: 250 random CNFs, single-shot and session"
      `Slow test_differential;
    Alcotest.test_case "assumptions agree with units (150 seeds)" `Slow
      test_assumptions_vs_units;
    Alcotest.test_case "interleaved add/solve agrees with fresh (100 seeds)"
      `Slow test_interleaved;
    Alcotest.test_case "attached CNF sync agrees with fresh (50 seeds)" `Slow
      test_attach_sync;
    Alcotest.test_case "variables grow mid-session" `Quick test_growing_vars;
    Alcotest.test_case "budgets trip to Unknown, never a wrong verdict" `Quick
      test_budget_soundness;
    Alcotest.test_case "budgets stay sound after DB reduction" `Quick
      test_budget_mid_session;
    Alcotest.test_case "session conflicts are monotone" `Quick
      test_conflicts_monotone;
    Alcotest.test_case "long session stays under the reduce ceiling" `Quick
      test_learnt_under_ceiling;
    Alcotest.test_case "edge clauses: duplicates, tautologies, empty" `Quick
      test_edge_clauses;
    Alcotest.test_case "golden: 12 sessions, every query's decisions pinned"
      `Quick test_golden_sessions;
    Alcotest.test_case "golden: pigeonhole 9->8 conflicts, decisions" `Slow
      test_golden_pigeonhole;
    Alcotest.test_case "golden: activity ties after rescale underflow" `Slow
      test_golden_rescale_ties ]
