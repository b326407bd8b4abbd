(** The oracle-guided SAT attack of Subramanyan, Ray and Malik (HOST'15),
    applied to eFPGA-locked netlists.

    Two copies of the locked circuit with shared inputs and independent
    keys feed a miter that is satisfiable exactly when some input still
    distinguishes two candidate keys. Each satisfying assignment yields a
    distinguishing input pattern (DIP); querying the oracle and
    constraining both key copies with the observed response shrinks the
    key space until the miter goes UNSAT, at which point any key
    consistent with the recorded queries is functionally correct.

    The loop runs on one persistent {!Solver.Incremental} session: the
    miter's "some output differs" clause is gated behind an activation
    literal, each DIP iteration appends the new replay constraints to the
    live formula, and the final key extraction is the same session solved
    with the gate off — so learnt clauses from every earlier query carry
    into the next instead of every query restarting cold. *)

module Cnf = Alice_sat.Cnf
module Solver = Alice_sat.Solver
module Timebase = Alice_diag.Timebase

(** How an attack run ended. [Converged] proves the key space collapsed;
    [Exhausted] means the DIP budget ran out (the lock held within the
    budget); [Inconclusive] means the SAT solver's own
    conflict budget ran out, so the run proves nothing either way and
    must not be read as "secure". *)
type status = Converged | Exhausted | Inconclusive

let status_to_string = function
  | Converged -> "converged"
  | Exhausted -> "exhausted"
  | Inconclusive -> "inconclusive"

type outcome = {
  status : status;
  iterations : int;        (* DIPs used *)
  key : bool array option; (* recovered key, when converged *)
  key_bits : int;
  seconds : float;
  conflicts : int;         (* solver conflicts spent across all calls *)
  decisions : int;         (* the session's decisions *)
  reused : int;            (* learnt clauses inherited across session
                              queries *)
}

type budget = {
  max_iterations : int;
  solver_conflicts : int option;
      (* per-call conflict budget for the underlying SAT solver;
         [None] leaves the solver unbounded *)
}

let default_budget =
  { max_iterations = 256; solver_conflicts = None }

(** Run the attack. [oracle] maps a scan-input stimulus to the correct
    response (use {!Locked.make_oracle} for the standard threat model). *)
let attack ?(budget = default_budget) ?(observe = ignore) (l : Locked.t)
    ~(oracle : bool array -> bool array) : outcome =
  let start = Timebase.now_s () in
  let ins = Locked.input_nets l in
  let outs = Locked.output_nets l in
  (* base formula: the two-copy miter, with the "some output differs"
     disjunction gated behind an activation literal [act]. DIP queries
     solve under [act]; the final key extraction solves under [-act],
     where only the replay constraints bind key1 — exactly the
     feasibility formula, on the same session *)
  let f = Cnf.create () in
  let key1 = Cnf.fresh_vars f l.Locked.key_bits in
  let key2 = Cnf.fresh_vars f l.Locked.key_bits in
  let input_vars = Array.map (fun _ -> Cnf.fresh_var f) ins in
  let share_inputs =
    let m = Hashtbl.create 64 in
    Array.iteri (fun i n -> Hashtbl.replace m n input_vars.(i)) ins;
    fun n -> Hashtbl.find_opt m n
  in
  let map1 = Locked.encode_locked f l ~key_vars:key1 ~share:share_inputs in
  let map2 = Locked.encode_locked f l ~key_vars:key2 ~share:share_inputs in
  let diffs =
    Array.to_list outs
    |> List.map (fun n ->
           let d = Cnf.fresh_var f in
           Cnf.encode_xor f ~out:d ~a:map1.(n) ~b:map2.(n);
           d)
  in
  let act = Cnf.fresh_var f in
  Cnf.add_clause f (-act :: diffs);
  let session = Solver.Incremental.create ~nvars:(Cnf.var_count f) () in
  Solver.Incremental.attach session f;
  let spent = ref 0 in
  let solve assumptions =
    let r, c =
      Solver.Incremental.solve_stats ~assumptions
        ?max_conflicts:budget.solver_conflicts session
    in
    spent := !spent + c;
    observe (Solver.Incremental.stats session);
    r
  in
  (* append a recorded query: fresh internal nets per key copy, inputs
     and outputs pinned to the observed stimulus/response; a copy leaves
     out the LUT rows its pins satisfy *)
  let record_dip (x : bool array) (y : bool array) : unit =
    let pins = Array.make l.Locked.circuit.Alice_netlist.Circuit.next_net None in
    Array.iteri (fun i n -> pins.(n) <- Some x.(i)) ins;
    Array.iteri (fun i n -> pins.(n) <- Some y.(i)) outs;
    let replay key =
      let map =
        Locked.encode_locked ~pins f l ~key_vars:key ~share:(fun _ -> None)
      in
      Array.iteri
        (fun i n -> Cnf.add_unit f (if x.(i) then map.(n) else -map.(n)))
        ins;
      Array.iteri
        (fun i n -> Cnf.add_unit f (if y.(i) then map.(n) else -map.(n)))
        outs
    in
    replay key1;
    replay key2
  in
  let finish ~status ~iterations ~key =
    let st = Solver.Incremental.stats session in
    { status; iterations; key; key_bits = l.Locked.key_bits;
      seconds = Timebase.elapsed_since start; conflicts = !spent;
      decisions = st.Solver.Incremental.decisions;
      reused = st.Solver.Incremental.learnt_reused }
  in
  let rec loop iterations =
    if iterations >= budget.max_iterations then
      finish ~status:Exhausted ~iterations ~key:None
    else begin
      match solve [ act ] with
      | Solver.Unknown ->
        finish ~status:Inconclusive ~iterations ~key:None
      | Solver.Unsat -> (
        (* converged: with the miter gate off, the session reduces to the
           key-feasibility formula over key1 *)
        match solve [ -act ] with
        | Solver.Sat model ->
          let key =
            Some (Array.map (fun v -> Solver.model_value model v) key1)
          in
          finish ~status:Converged ~iterations ~key
        | Solver.Unsat ->
          finish ~status:Converged ~iterations ~key:None
        | Solver.Unknown ->
          finish ~status:Inconclusive ~iterations ~key:None)
      | Solver.Sat model ->
        let dip =
          Array.init (Array.length ins) (fun i ->
              Solver.model_value model input_vars.(i))
        in
        let response = oracle dip in
        record_dip dip response;
        loop (iterations + 1)
    end
  in
  loop 0
