(** SAT-based combinational equivalence checking.

    Two circuits are compared over their scan-exposed combinational
    cores (primary inputs plus DFF outputs feed primary outputs plus DFF
    inputs), which makes the check exact for sequential circuits whose
    registers correspond one to one — the case for all the rewrites in
    this repo (LUT mapping, redaction) that preserve the register set.

    The miter is UNSAT exactly when the circuits agree everywhere; a
    model yields a counterexample assignment. *)

module Circuit = Alice_netlist.Circuit

type counterexample = {
  inputs : (string * string) list;  (* per port, bits MSB first *)
  outputs_a : (string * string) list;
  outputs_b : (string * string) list;
}

type result = Equivalent | Different of counterexample

exception Interface_mismatch of string

let fail fmt = Format.kasprintf (fun m -> raise (Interface_mismatch m)) fmt

(* the threat model's scan view, as named groups *)
let scan_inputs (c : Circuit.t) : (string * Circuit.net array) list =
  c.Circuit.inputs
  @ List.mapi
      (fun i (d : Circuit.dff) -> (Printf.sprintf "$ff%d" i, [| d.q |]))
      (Circuit.dff_list c)

let scan_outputs (c : Circuit.t) : (string * Circuit.net array) list =
  c.Circuit.outputs
  @ List.mapi
      (fun i (d : Circuit.dff) -> (Printf.sprintf "$ff%d_d" i, [| d.d |]))
      (Circuit.dff_list c)

let check_interfaces a b =
  let sig_of l = List.map (fun (n, nets) -> (n, Array.length nets)) l in
  if sig_of (scan_inputs a) <> sig_of (scan_inputs b) then
    fail "input interfaces differ";
  if sig_of (scan_outputs a) <> sig_of (scan_outputs b) then
    fail "output interfaces differ"

(** Check equivalence of [a] and [b]: one miter, solved once. Raises
    {!Interface_mismatch} when their port names/widths (or register
    counts) differ. *)
let check (a : Circuit.t) (b : Circuit.t) : result =
  check_interfaces a b;
  let f = Cnf.create () in
  let map_a = Tseitin.encode_copy f a ~share:(fun _ -> None) in
  (* share the input variables between the copies *)
  let shared = Hashtbl.create 64 in
  List.iter2
    (fun (_, nets_a) (_, nets_b) ->
      Array.iteri
        (fun i nb -> Hashtbl.replace shared nb map_a.(nets_a.(i)))
        nets_b)
    (scan_inputs a) (scan_inputs b);
  let map_b =
    Tseitin.encode_copy f b ~share:(fun n -> Hashtbl.find_opt shared n)
  in
  let diffs =
    List.concat
      (List.map2
         (fun (_, nets_a) (_, nets_b) ->
           Array.to_list
             (Array.mapi
                (fun i na ->
                  let d = Cnf.fresh_var f in
                  Cnf.encode_xor f ~out:d ~a:map_a.(na) ~b:map_b.(nets_b.(i));
                  d)
                nets_a))
         (scan_outputs a) (scan_outputs b))
  in
  (* some output differs *)
  Cnf.add_clause f diffs;
  match Solver.solve f with
  | Solver.Unsat -> Equivalent
  | Solver.Unknown -> assert false (* no budget was given *)
  | Solver.Sat model ->
    (* one character per bit, so a port of any width fits *)
    let pack nets map =
      let w = Array.length nets in
      String.init w (fun i ->
          if Solver.model_value model map.(nets.(w - 1 - i)) then '1' else '0')
    in
    Different
      { inputs =
          List.map (fun (name, nets) -> (name, pack nets map_a)) (scan_inputs a);
        outputs_a =
          List.map (fun (name, nets) -> (name, pack nets map_a)) (scan_outputs a);
        outputs_b =
          List.map (fun (name, nets) -> (name, pack nets map_b)) (scan_outputs b)
      }

let pp_counterexample fmt (cex : counterexample) =
  let pp_group fmt l =
    Format.pp_print_list
      ~pp_sep:(fun f () -> Format.pp_print_string f ", ")
      (fun f (n, v) -> Format.fprintf f "%s=%s" n v)
      fmt l
  in
  Format.fprintf fmt "inputs: %a; a: %a; b: %a" pp_group cex.inputs pp_group
    cex.outputs_a pp_group cex.outputs_b
