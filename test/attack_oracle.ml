(* Reference SAT attack for the differential suite: the encoder and
   attack loop [Alice_security] used before each replay left out the
   LUT rows its pins satisfy and before the lock was compiled once,
   kept verbatim apart from deriving each LUT's key offset and the scan
   nets from the circuit itself. Every DIP appends two whole copies of
   the locked netlist and pins their core inputs and outputs with units
   loaded after the copy — the plainest statement of the replay, and
   the search the pruned loop must reproduce query for query. It reads
   nothing [Locked.of_mapped] compiles. *)

module Circuit = Alice_netlist.Circuit
module Cnf = Alice_sat.Cnf
module Equiv = Alice_sat.Equiv
module Solver = Alice_sat.Solver
module Tseitin = Alice_sat.Tseitin
module Locked = Alice_security.Locked
module Sat_attack = Alice_security.Sat_attack

let input_nets (l : Locked.t) =
  Array.concat (List.map snd (Equiv.scan_inputs l.Locked.circuit))

let output_nets (l : Locked.t) =
  Array.concat (List.map snd (Equiv.scan_outputs l.Locked.circuit))

(* one whole copy: [Locked.encode_locked] without pins *)
let encode_locked (f : Cnf.t) (l : Locked.t) ~(key_vars : int array)
    ~(share : Circuit.net -> int option) : int array =
  let referenced = Array.make l.Locked.circuit.Circuit.next_net false in
  let mark n = referenced.(n) <- true in
  List.iter
    (fun (g : Circuit.gate) ->
      mark g.Circuit.output;
      Array.iter mark g.Circuit.inputs)
    (Circuit.gates_in_order l.Locked.circuit);
  Array.iter mark (input_nets l);
  Array.iter mark (output_nets l);
  let net_var =
    Array.init l.Locked.circuit.Circuit.next_net (fun n ->
        match share n with
        | Some v -> v
        | None -> if referenced.(n) then Cnf.fresh_var f else 0)
  in
  (* the key layout: the LUT tables in gate order *)
  let next_offset = ref 0 in
  List.iter
    (fun (g : Circuit.gate) ->
      match g.Circuit.kind with
      | Circuit.Lut table ->
        let out = net_var.(g.Circuit.output) in
        let off = !next_offset in
        next_offset := off + Array.length table;
        let k = Array.length g.Circuit.inputs in
        assert (Array.length table = 1 lsl k);
        for row = 0 to (1 lsl k) - 1 do
          let guard =
            List.init k (fun i ->
                let v = net_var.(g.Circuit.inputs.(i)) in
                if (row lsr i) land 1 = 1 then -v else v)
          in
          let key = key_vars.(off + row) in
          (* guard -> (out <-> key) *)
          Cnf.add_clause f (out :: -key :: guard);
          Cnf.add_clause f (-out :: key :: guard)
        done
      | Circuit.Const _ | Circuit.Buf | Circuit.Not | Circuit.And
      | Circuit.Or | Circuit.Xor | Circuit.Xnor | Circuit.Nand | Circuit.Nor
      | Circuit.Mux -> Tseitin.encode_gate f net_var g)
    (Circuit.gates_in_order l.Locked.circuit);
  net_var

(* [Sat_attack.attack] with whole replay copies; [observe] sees the
   session's counters after each query, as the product loop's does *)
let attack ~(budget : Sat_attack.budget)
    ~(observe : Solver.Incremental.stats -> unit) (l : Locked.t)
    ~(oracle : bool array -> bool array) : Sat_attack.outcome =
  let ins = input_nets l in
  let outs = output_nets l in
  let f = Cnf.create () in
  let key1 = Cnf.fresh_vars f l.Locked.key_bits in
  let key2 = Cnf.fresh_vars f l.Locked.key_bits in
  let input_vars = Array.map (fun _ -> Cnf.fresh_var f) ins in
  let share_inputs =
    let m = Hashtbl.create 64 in
    Array.iteri (fun i n -> Hashtbl.replace m n input_vars.(i)) ins;
    fun n -> Hashtbl.find_opt m n
  in
  let map1 = encode_locked f l ~key_vars:key1 ~share:share_inputs in
  let map2 = encode_locked f l ~key_vars:key2 ~share:share_inputs in
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
        ?max_conflicts:budget.Sat_attack.solver_conflicts session
    in
    spent := !spent + c;
    observe (Solver.Incremental.stats session);
    r
  in
  let record_dip (x : bool array) (y : bool array) : unit =
    let replay key =
      let map = encode_locked f l ~key_vars:key ~share:(fun _ -> None) in
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
    { Sat_attack.status; iterations; key; key_bits = l.Locked.key_bits;
      seconds = 0.0; conflicts = !spent;
      decisions = st.Solver.Incremental.decisions;
      reused = st.Solver.Incremental.learnt_reused }
  in
  let rec loop iterations =
    if iterations >= budget.Sat_attack.max_iterations then
      finish ~status:Sat_attack.Exhausted ~iterations ~key:None
    else begin
      match solve [ act ] with
      | Solver.Unknown ->
        finish ~status:Sat_attack.Inconclusive ~iterations ~key:None
      | Solver.Unsat -> (
        match solve [ -act ] with
        | Solver.Sat model ->
          let key =
            Some (Array.map (fun v -> Solver.model_value model v) key1)
          in
          finish ~status:Sat_attack.Converged ~iterations ~key
        | Solver.Unsat ->
          finish ~status:Sat_attack.Converged ~iterations ~key:None
        | Solver.Unknown ->
          finish ~status:Sat_attack.Inconclusive ~iterations ~key:None)
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
