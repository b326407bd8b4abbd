(* Order statistics shared by the workloads and the compare tool. *)

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest value with at least a share [p] of the
   values at or below it. A run's requests are whole decks of one fixed
   mix, and nearest rank gives the same answer for one deck as for any
   number of copies of it, so a percentile does not shift with how many
   decks a run completed (interpolating ranks would). *)
let percentile (xs : float list) (p : float) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    (* the epsilon keeps p * n = 45.000000000000007 at rank 45 *)
    let rank = int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* The middle value, or the mean of the middle two. *)
let median (xs : float list) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] gives
   them (its default "exclusive" method), so spreads printed here match
   the ones a Python reader computes from the same values. A single
   value is its own quartiles. *)
let quartiles (xs : float list) : float * float * float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)
