(** CNF formula representation.

    Variables are positive integers; a literal is [+v] (variable true) or
    [-v] (variable false), DIMACS style. *)

type lit = int

type clause = lit array

type t = {
  mutable var_count : int;
  mutable clauses : clause array;  (* addition order; the first
                                       [clause_count] slots are used *)
  mutable clause_count : int;
}

let create () = { var_count = 0; clauses = [||]; clause_count = 0 }

let fresh_var (f : t) : int =
  f.var_count <- f.var_count + 1;
  f.var_count

let fresh_vars (f : t) n : int array = Array.init n (fun _ -> fresh_var f)

let add_clause (f : t) (c : lit list) : unit =
  assert (List.for_all (fun l -> l <> 0 && abs l <= f.var_count) c);
  let n = f.clause_count in
  if n = Array.length f.clauses then begin
    let grown = Array.make (max 16 (2 * n)) [||] in
    Array.blit f.clauses 0 grown 0 n;
    f.clauses <- grown
  end;
  f.clauses.(n) <- Array.of_list c;
  f.clause_count <- n + 1

(* up to the count at the call, so [g] may add clauses to [f] *)
let iter_from (f : t) (n : int) (g : clause -> unit) : unit =
  let clauses = f.clauses and stop = f.clause_count in
  for i = n to stop - 1 do
    g clauses.(i)
  done

let var_count f = f.var_count

let clause_count f = f.clause_count

(* convenience encodings *)

let add_unit f l = add_clause f [ l ]

(** [out <-> a AND b] *)
let encode_and f ~out ~a ~b =
  add_clause f [ -out; a ];
  add_clause f [ -out; b ];
  add_clause f [ out; -a; -b ]

let encode_or f ~out ~a ~b =
  add_clause f [ out; -a ];
  add_clause f [ out; -b ];
  add_clause f [ -out; a; b ]

let encode_xor f ~out ~a ~b =
  add_clause f [ -out; a; b ];
  add_clause f [ -out; -a; -b ];
  add_clause f [ out; -a; b ];
  add_clause f [ out; a; -b ]

let encode_not f ~out ~a =
  add_clause f [ -out; -a ];
  add_clause f [ out; a ]

let encode_eq f ~a ~b =
  add_clause f [ -a; b ];
  add_clause f [ a; -b ]

(** [out <-> (sel ? b : a)] *)
let encode_mux f ~out ~sel ~a ~b =
  add_clause f [ -out; sel; a ];
  add_clause f [ out; sel; -a ];
  add_clause f [ -out; -sel; b ];
  add_clause f [ out; -sel; -b ]
