(** CNF formula representation.

    Variables are positive integers; a literal is [+v] (variable true) or
    [-v] (variable false), DIMACS style. *)

type lit = int

type clause = lit array

type t = {
  mutable var_count : int;
  mutable clauses : clause list;  (* reverse order of addition *)
  mutable clause_count : int;
}

let create () = { var_count = 0; clauses = []; clause_count = 0 }

let fresh_var (f : t) : int =
  f.var_count <- f.var_count + 1;
  f.var_count

let fresh_vars (f : t) n : int array = Array.init n (fun _ -> fresh_var f)

let add_clause (f : t) (c : lit list) : unit =
  assert (List.for_all (fun l -> l <> 0 && abs l <= f.var_count) c);
  f.clauses <- Array.of_list c :: f.clauses;
  f.clause_count <- f.clause_count + 1

let clause_list (f : t) : clause list = List.rev f.clauses

(** Clauses added at position [>= n] (0-based, in addition order). The
    incremental solver uses this to pull only the delta a caller encoded
    since its last sync, in the exact order it was added. *)
let clauses_from (f : t) (n : int) : clause list =
  let rec take acc k rest =
    if k <= 0 then acc
    else
      match rest with [] -> acc | c :: tl -> take (c :: acc) (k - 1) tl
  in
  take [] (f.clause_count - n) f.clauses

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
