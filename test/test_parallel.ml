(* The domain-parallel characterization engine: pool ordering and fault
   isolation, the keyed resolver under contention and against a serial
   reference, serial vs parallel flow equivalence, and determinism of a
   parallel SoC run. *)

module A = Alice
module B = Alice_benchmarks.Suite
module C = Alice_config
module D = Alice_diag.Diag
module F = Alice_fabric
module P = Alice_parallel
module V = Alice_verilog

let flow_ast ~config ast =
  A.Flow.run_request (A.Flow.request ~config (A.Flow.Ast ast))

(* ---------- pool semantics ---------- *)

let test_map_ordered_matches_serial () =
  (* 100 tasks: every jobs value returns the serial map, in order *)
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  let expected = List.map (fun x -> P.Pool.Value (f x)) xs in
  List.iter
    (fun jobs ->
      let pool = P.Pool.create ~jobs in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d equals serial map" jobs)
        true
        (P.Pool.map_ordered pool f xs = expected))
    [ 1; 2; 4; 7 ]

exception Boom of int

let test_exception_capture () =
  (* a raising task yields its own error; siblings still complete *)
  let xs = List.init 40 Fun.id in
  let f x = if x mod 5 = 3 then raise (Boom x) else 2 * x in
  List.iter
    (fun jobs ->
      let pool = P.Pool.create ~jobs in
      let out = P.Pool.map_ordered pool f xs in
      Alcotest.(check int) "every task has an outcome" 40 (List.length out);
      List.iteri
        (fun i o ->
          match o with
          | P.Pool.Value v ->
            Alcotest.(check bool) "only non-raising tasks return" false
              (i mod 5 = 3);
            Alcotest.(check int) "sibling unaffected" (2 * i) v
          | P.Pool.Raised (Boom j) ->
            Alcotest.(check int) "a task's error is its own" i j
          | P.Pool.Raised e ->
            Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e))
        out)
    [ 1; 4 ]

(* ---------- the keyed resolver ---------- *)

(* four domains resolve the same 64 items (8 distinct keys) through one
   memo at once, each over its own 2-domain pool *)
let test_memo_contention () =
  let memo : (int, int) P.Memo.t = P.Memo.create () in
  let computed = Atomic.make 0 in
  let items = List.init 64 (fun i -> (i mod 8, i mod 8)) in
  let resolve () =
    P.Memo.resolve ~jobs:2
      ~recover:(fun _ _ -> Alcotest.fail "no task fails")
      memo
      (fun k ->
        Atomic.incr computed;
        k * 100)
      items
  in
  let callers = List.init 4 (fun _ -> Domain.spawn resolve) in
  List.iter
    (fun d ->
      let r = Domain.join d in
      Alcotest.(check (list int)) "consistent values"
        (List.map (fun (k, _) -> k * 100) items)
        r.P.Memo.values;
      Alcotest.(check int) "every key a hit or computed once" 8
        (r.P.Memo.hits + r.P.Memo.computed))
    callers;
  (* a key another caller has claimed is waited for, not computed *)
  Alcotest.(check int) "each key computed once" 8 (Atomic.get computed);
  (* every key is now bound: a later call computes nothing *)
  let r = resolve () in
  Alcotest.(check int) "all 8 keys cached" 8 r.P.Memo.hits;
  Alcotest.(check int) "no recomputation" 8 (Atomic.get computed)

(* Two domains resolve overlapping batches through one memo at once,
   the second in reverse key order, each over its own 2-domain pool:
   every key is computed once, by the call that claims it first, and
   the other call counts it as a hit, however the tasks interleave. *)
let test_resolve_overlapping_batches () =
  let memo : (int, int) P.Memo.t = P.Memo.create () in
  let calls = Array.init 18 (fun _ -> Atomic.make 0) in
  let compute k =
    Atomic.incr calls.(k);
    Unix.sleepf 0.005;
    k * 10
  in
  let arrived = Atomic.make 0 in
  let batch keys () =
    Atomic.incr arrived;
    while Atomic.get arrived < 2 do Domain.cpu_relax () done;
    P.Memo.resolve ~jobs:2 ~recover:(fun _ e -> raise e) memo compute
      (List.map (fun k -> (k, k)) keys)
  in
  let a = List.init 12 Fun.id and b = List.init 12 (fun i -> 17 - i) in
  let da = Domain.spawn (batch a) and db = Domain.spawn (batch b) in
  let ra = Domain.join da and rb = Domain.join db in
  Array.iteri
    (fun k n ->
      Alcotest.(check int) (Printf.sprintf "key %d computed once" k) 1 (Atomic.get n))
    calls;
  List.iter
    (fun (name, keys, (r : (int, int) P.Memo.resolution)) ->
      Alcotest.(check (list int)) (name ^ ": values")
        (List.map (fun k -> k * 10) keys) r.P.Memo.values;
      Alcotest.(check int) (name ^ ": every key a hit or computed") 12
        (r.P.Memo.hits + r.P.Memo.computed))
    [ ("a", a, ra); ("b", b, rb) ];
  Alcotest.(check (pair int int)) "the memo's hits and computations" (6, 18)
    (P.Memo.counts memo)

(* Four domains look up one key at once, the first computation held
   until all four have arrived: it runs once and the others wait for
   it, as hits. When it raises, one waiter computes the key in turn. *)
let test_find_or_compute_once () =
  let callers = 4 in
  let run ~fail_first =
    let memo : (int, int) P.Memo.t = P.Memo.create () in
    let arrived = Atomic.make 0 and calls = Atomic.make 0 in
    let compute () =
      let call = Atomic.fetch_and_add calls 1 in
      while Atomic.get arrived < callers do Domain.cpu_relax () done;
      Unix.sleepf 0.02;
      if fail_first && call = 0 then raise (Failure "first computation");
      42
    in
    let lookup () =
      Atomic.incr arrived;
      match P.Memo.find_or_compute memo 7 compute with
      | v -> Ok v
      | exception Failure _ -> Error ()
    in
    let results = List.map Domain.join (List.init callers (fun _ -> Domain.spawn lookup)) in
    (Atomic.get calls, List.sort compare results, P.Memo.counts memo)
  in
  let calls, results, counts = run ~fail_first:false in
  Alcotest.(check int) "computed once" 1 calls;
  Alcotest.(check (list (result int unit))) "every caller gets the value"
    [ Ok 42; Ok 42; Ok 42; Ok 42 ] results;
  Alcotest.(check (pair int int)) "one computation, three hits" (3, 1) counts;
  let calls, results, counts = run ~fail_first:true in
  Alcotest.(check int) "computed again after a raise" 2 calls;
  Alcotest.(check (list (result int unit))) "the raise reaches its caller only"
    [ Ok 42; Ok 42; Ok 42; Error () ] results;
  Alcotest.(check (pair int int)) "a raise is not counted" (2, 1) counts

exception Rejected of int

(* Random items with duplicate keys, resolved at jobs 1 and 4 against a
   serial reference. Keys below 2 are served by the [load] hook, inputs
   divisible by 5 raise, and [keep] rejects odd values. *)
let resolve_prop =
  QCheck.Test.make ~count:100 ~name:"resolve matches a serial reference"
    QCheck.(small_list (pair (int_range 0 9) (int_range 0 50)))
    (fun items ->
      let load k = if k < 2 then Some (1000 + k) else None in
      let compute x = if x mod 5 = 0 then raise (Rejected x) else 3 * x in
      let keep v = v mod 2 = 0 in
      let recover x = function
        | Rejected y when x = y -> -x
        | e -> raise e
      in
      (* each distinct key in first-occurrence order, decided by its
         first input: (value, written back) *)
      let order =
        List.fold_left
          (fun acc (k, x) ->
            if List.mem_assoc k acc then acc else (k, x) :: acc)
          [] items
        |> List.rev
      in
      let expect =
        List.map
          (fun (k, x) ->
            ( k,
              match load k with
              | Some v -> (v, false)
              | None -> (
                match compute x with
                | v -> (v, keep v)
                | exception Rejected _ -> (-x, false)) ))
          order
      in
      let value k = fst (List.assoc k expect) in
      let hits = List.length (List.filter (fun (k, _) -> k < 2) order) in
      let kept =
        List.filter_map (fun (k, (_, kept)) -> if kept then Some k else None)
          expect
      in
      List.for_all
        (fun jobs ->
          let saved = ref [] in
          let memo =
            P.Memo.create ~load ~save:(fun k _ -> saved := k :: !saved) ()
          in
          let r = P.Memo.resolve ~jobs ~keep ~recover memo compute items in
          r.P.Memo.values = List.map (fun (k, _) -> value k) items
          && r.P.Memo.uniques = List.map (fun (k, _) -> (k, value k)) order
          && r.P.Memo.hits = hits
          && r.P.Memo.hits + r.P.Memo.computed = List.length order
          && List.rev !saved = kept)
        [ 1; 4 ])

(* ---------- flow equivalence: serial vs parallel ---------- *)

(* timing-free projection of everything selection/diagnostics decide *)
let solution_sig (s : A.Selection.solution) =
  ( List.map
      (fun (e : A.Selection.efpga_impl) ->
        ( e.A.Selection.cluster.A.Clustering.key,
          F.Fabric.size_label e.A.Selection.impl.F.Size_search.fabric,
          e.A.Selection.score ))
      s.A.Selection.efpgas,
    s.A.Selection.total_score,
    s.A.Selection.redacted_instances,
    s.A.Selection.is_final )

(* an implementation's fabric, LUTs from its mapped circuit, and CLBs
   and I/O bits from its placement *)
let outcome_sig (c : A.Characterize.characterization) =
  match c.A.Characterize.outcome with
  | A.Characterize.Implemented impl ->
    let p = impl.F.Size_search.placement in
    `Implemented
      ( F.Fabric.size_label impl.F.Size_search.fabric,
        Option.map Alice_netlist.Circuit.lut_count c.A.Characterize.mapped,
        List.length p.F.Place.clbs, List.length p.F.Place.io_sites )
  | A.Characterize.Infeasible f -> `Infeasible (F.Size_search.failure_to_string f)
  | A.Characterize.Failed d -> `Failed d
  | A.Characterize.Skipped d -> `Skipped d

(* the largest utilization among the valid implementations, the
   maximum Eq. 1 divides by *)
let max_util (util : F.Size_search.implementation -> float) (flow : A.Flow.t) =
  List.fold_left
    (fun acc (e : A.Selection.efpga_impl) -> Float.max acc (util e.A.Selection.impl))
    0.0 flow.A.Flow.selection.A.Selection.valid

let flow_sig (flow : A.Flow.t) =
  ( List.map
      (fun (c : A.Characterize.characterization) ->
        (c.A.Characterize.cluster.A.Clustering.key,
         outcome_sig c))
      flow.A.Flow.characterized,
    A.Selection.solution_count flow.A.Flow.selection,
    List.map solution_sig (Selection_oracle.of_flow flow),
    Option.map solution_sig flow.A.Flow.selection.A.Selection.best,
    max_util (fun i -> i.F.Size_search.io_util) flow,
    max_util (fun i -> i.F.Size_search.clb_util) flow,
    flow.A.Flow.diags )

let test_flow_jobs_equivalence () =
  (* full Flow.run_request on two benchmarks: selection and diagnostics are
     identical (modulo timing fields) between jobs=1 and jobs=4 *)
  List.iter
    (fun name ->
      let b = Option.get (B.find name) in
      let ast = B.parse b in
      let serial =
        flow_ast ~config:{ (B.config1 b) with C.Flow_config.jobs = 1 } ast
      in
      let parallel =
        flow_ast ~config:{ (B.config1 b) with C.Flow_config.jobs = 4 } ast
      in
      Alcotest.(check bool)
        (name ^ ": jobs=4 flow output equals jobs=1")
        true
        (flow_sig serial = flow_sig parallel))
    [ "GCD"; "SASC" ]

(* ---------- determinism: the SoC flow at jobs=4 and jobs=1 ---------- *)

let soc_cfg ~jobs =
  { C.Flow_config.cfg1 with
    C.Flow_config.selected_outputs = Alice_benchmarks.Soc.selected_outputs;
    top = Some Alice_benchmarks.Soc.top;
    min_fabric_size = 4; max_fabric_size = 20; target_utilization = 0.5;
    min_clb_utilization = 0.3; jobs }

let test_soc_parallel_determinism () =
  let ast = V.Parser.parse ~file:"soc.v" Alice_benchmarks.Soc.source in
  let run jobs = flow_ast ~config:(soc_cfg ~jobs) ast in
  let first = run 4 and second = run 4 and serial = run 1 in
  Alcotest.(check bool) "SoC flow is deterministic at jobs=4" true
    (flow_sig first = flow_sig second);
  Alcotest.(check bool) "SoC flow at jobs=4 equals jobs=1" true
    (flow_sig first = flow_sig serial);
  Alcotest.(check bool) "the SoC flow actually selects a solution" true
    (first.A.Flow.selection.A.Selection.best <> None)

let tests =
  [ Alcotest.test_case "map_ordered equals serial map (100 tasks)" `Quick
      test_map_ordered_matches_serial;
    Alcotest.test_case "exception capture isolates one task" `Quick
      test_exception_capture;
    Alcotest.test_case "memo table under domain contention" `Quick
      test_memo_contention;
    Alcotest.test_case "find_or_compute computes a key once" `Quick
      test_find_or_compute_once;
    Alcotest.test_case "overlapping resolve batches compute a key once" `Quick
      test_resolve_overlapping_batches;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2022 |])
      resolve_prop;
    Alcotest.test_case "flow: jobs=1 vs jobs=4 equivalence" `Slow
      test_flow_jobs_equivalence;
    Alcotest.test_case "flow: SoC determinism at jobs=4" `Slow
      test_soc_parallel_determinism ]
