(** A CDCL SAT solver: two-watched-literal propagation, first-UIP conflict
    analysis with clause learning, VSIDS-style branching activity with
    phase saving, and geometric restarts. Sized for the circuit problems
    the SAT attack generates (thousands of variables).

    Branching takes the unassigned variable of highest activity, the
    lowest index among equal activities, from a binary max-heap ordered
    by (activity descending, index ascending), so a decision costs
    O(log n) instead of a scan over every variable. Assigned variables
    leave the heap lazily: a decision pops them as they surface at the
    top. Every variable a backjump unassigns is re-inserted, so every
    unassigned variable is always in the heap; a bump sifts its variable
    up; and the 1e100 activity rescale re-heapifies, because underflow
    can turn two distinct activities into a tie that the index must then
    break.

    The engine is a persistent *incremental session* ({!Incremental}):
    one solver instance stays alive across queries, clauses and
    variables can be appended to the live instance, each query solves
    under per-call assumptions (retracted afterwards), and learnt
    clauses — plus branching activity and saved phases — carry over
    between queries. An LBD-ordered clause-database reduction with a
    geometric ceiling keeps the retained learnts from degrading
    propagation. The single-shot {!solve} is a one-query session. *)

type result =
  | Sat of bool array (* indexed by variable, entry 0 unused *)
  | Unsat
  | Unknown (* a resource budget ran out before the search concluded *)

(* literal encoding internal to the solver: lit = 2*var for positive,
   2*var+1 for negative; var in 1..n *)
let lit_of_dimacs l = if l > 0 then 2 * l else (2 * -l) + 1
let neg l = l lxor 1
let var_of_lit l = l lsr 1

type clause_rec = {
  mutable lits : int array;  (* internal encoding *)
  mutable w1 : int;          (* indices into lits of the two watches *)
  mutable w2 : int;
  learnt : bool;
  id : int;                  (* allocation order; reduction tie-break *)
  lbd : int;                 (* literal block distance at learn time *)
  mutable deleted : bool;
}

type t = {
  mutable nvars : int;
  mutable var_cap : int;               (* allocated variable capacity *)
  (* clause storage is a dynamic array so DB reduction is O(live
     clauses), not O(history): deletion marks + one compaction pass *)
  mutable clause_data : clause_rec array;
  mutable clause_len : int;
  mutable n_problem : int;             (* non-learnt clauses stored *)
  mutable watches : clause_rec list array;  (* indexed by literal *)
  mutable assign : int array;          (* per var: 0 unknown, 1 true, -1 false *)
  mutable level : int array;           (* per var *)
  mutable reason : clause_rec option array; (* per var *)
  mutable trail : int array;           (* literals in assignment order *)
  mutable trail_size : int;
  mutable trail_lim : int array;       (* decision level boundaries *)
  mutable decision_level : int;
  mutable qhead : int;
  mutable activity : float array;
  mutable var_inc : float;
  mutable heap : int array;            (* branching order, see [before] *)
  mutable heap_len : int;
  mutable heap_pos : int array;        (* per var: slot in [heap], -1 if out *)
  mutable phase : bool array;          (* saved phases *)
  mutable seen : bool array;           (* scratch for analyze *)
  mutable lbd_stamp : int array;       (* scratch for LBD, by level *)
  mutable lbd_tick : int;
  mutable conflicts : int;
  mutable propagations : int;
  mutable decisions : int;
  mutable next_id : int;
  mutable contradiction : bool;        (* formula refuted at level 0 *)
  (* clause-DB reduction policy *)
  reduce_base : int;
  mutable max_learnts : int;           (* current reduce ceiling *)
  mutable learnt_live : int;
  (* session accounting *)
  mutable queries : int;
  mutable learnt_reused : int;         (* cumulative live learnts at query starts *)
  mutable learnt_dropped : int;        (* cumulative clauses removed by reduction *)
  mutable reduces : int;
  (* attached source CNF for sync *)
  mutable source : Cnf.t option;
  mutable synced : int;                (* clauses of [source] already loaded *)
}

exception Unsat_exception
exception Assumption_unsat

let dummy_clause =
  { lits = [||]; w1 = 0; w2 = 0; learnt = false; id = -1; lbd = 0;
    deleted = true }

let default_reduce_base = 2_000

let grow_array a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* ---- branching order: a binary max-heap of variables ---- *)

(* [v] branches before [u]: higher activity, then lower index — the
   order of a scan over 1..nvars keeping the first strict maximum *)
let before (s : t) v u =
  let av = s.activity.(v) and au = s.activity.(u) in
  av > au || (av = au && v < u)

let place (s : t) v i =
  s.heap.(i) <- v;
  s.heap_pos.(v) <- i

(* move [v] from the hole at slot [i] towards the root *)
let rec sift_up (s : t) v i =
  if i = 0 then place s v 0
  else begin
    let p = (i - 1) / 2 in
    let u = s.heap.(p) in
    if before s v u then begin
      place s u i;
      sift_up s v p
    end
    else place s v i
  end

(* move [v] from the hole at slot [i] towards the leaves *)
let rec sift_down (s : t) v i =
  let l = (2 * i) + 1 in
  if l >= s.heap_len then place s v i
  else begin
    let c =
      if l + 1 < s.heap_len && before s s.heap.(l + 1) s.heap.(l) then l + 1
      else l
    in
    let u = s.heap.(c) in
    if before s u v then begin
      place s u i;
      sift_down s v c
    end
    else place s v i
  end

let heap_insert (s : t) v =
  if s.heap_pos.(v) < 0 then begin
    s.heap_len <- s.heap_len + 1;
    sift_up s v (s.heap_len - 1)
  end

let heap_pop (s : t) =
  s.heap_pos.(s.heap.(0)) <- -1;
  s.heap_len <- s.heap_len - 1;
  if s.heap_len > 0 then sift_down s s.heap.(s.heap_len) 0

let heapify (s : t) =
  for i = (s.heap_len / 2) - 1 downto 0 do
    sift_down s s.heap.(i) i
  done

(** Grow per-variable state so variables [1..n] exist, entering the new
    ones into the branching heap. Amortized O(1): capacity doubles. Safe
    on a live session — only appends. *)
let ensure_vars (s : t) (n : int) : unit =
  if n > s.var_cap then begin
    let cap = ref s.var_cap in
    while n > !cap do
      cap := !cap * 2
    done;
    let cap = !cap in
    s.watches <- grow_array s.watches ((2 * (cap + 1)) + 2) [];
    s.assign <- grow_array s.assign (cap + 1) 0;
    s.level <- grow_array s.level (cap + 1) 0;
    s.reason <- grow_array s.reason (cap + 1) None;
    s.trail <- grow_array s.trail (cap + 1) 0;
    s.trail_lim <- grow_array s.trail_lim (cap + 2) 0;
    s.activity <- grow_array s.activity (cap + 1) 0.0;
    s.heap <- grow_array s.heap (cap + 1) 0;
    s.heap_pos <- grow_array s.heap_pos (cap + 1) (-1);
    s.phase <- grow_array s.phase (cap + 1) false;
    s.seen <- grow_array s.seen (cap + 1) false;
    s.lbd_stamp <- grow_array s.lbd_stamp (cap + 2) 0;
    s.var_cap <- cap
  end;
  for v = s.nvars + 1 to n do
    heap_insert s v
  done;
  if n > s.nvars then s.nvars <- n

(* an empty session whose variables [1..nvars] enter through
   [ensure_vars], like every later variable *)
let create_session ?(nvars = 0) ?(reduce_base = default_reduce_base) () =
  let cap = max nvars 16 in
  let s =
    { nvars = 0; var_cap = cap;
      clause_data = Array.make 64 dummy_clause;
      clause_len = 0;
      n_problem = 0;
      watches = Array.make ((2 * (cap + 1)) + 2) [];
      assign = Array.make (cap + 1) 0;
      level = Array.make (cap + 1) 0;
      reason = Array.make (cap + 1) None;
      trail = Array.make (cap + 1) 0;
      trail_size = 0;
      trail_lim = Array.make (cap + 2) 0;
      decision_level = 0;
      qhead = 0;
      activity = Array.make (cap + 1) 0.0;
      var_inc = 1.0;
      heap = Array.make (cap + 1) 0;
      heap_len = 0;
      heap_pos = Array.make (cap + 1) (-1);
      phase = Array.make (cap + 1) false;
      seen = Array.make (cap + 1) false;
      lbd_stamp = Array.make (cap + 2) 0;
      lbd_tick = 0;
      conflicts = 0; propagations = 0; decisions = 0;
      next_id = 0;
      contradiction = false;
      reduce_base = max 16 reduce_base;
      max_learnts = max 16 reduce_base;
      learnt_live = 0;
      queries = 0; learnt_reused = 0; learnt_dropped = 0; reduces = 0;
      source = None; synced = 0 }
  in
  ensure_vars s nvars;
  s

let lit_value (s : t) (l : int) : int =
  (* 1 true, -1 false, 0 unassigned *)
  let v = s.assign.(var_of_lit l) in
  if v = 0 then 0 else if l land 1 = 0 then v else -v

let enqueue (s : t) (l : int) (why : clause_rec option) : unit =
  let v = var_of_lit l in
  s.assign.(v) <- (if l land 1 = 0 then 1 else -1);
  s.level.(v) <- s.decision_level;
  s.reason.(v) <- why;
  s.phase.(v) <- l land 1 = 0;
  s.trail.(s.trail_size) <- l;
  s.trail_size <- s.trail_size + 1

let watch (s : t) (l : int) (c : clause_rec) : unit =
  s.watches.(l) <- c :: s.watches.(l)

let push_clause (s : t) (c : clause_rec) : unit =
  if s.clause_len = Array.length s.clause_data then
    s.clause_data <- grow_array s.clause_data (2 * s.clause_len) dummy_clause;
  s.clause_data.(s.clause_len) <- c;
  s.clause_len <- s.clause_len + 1

(* a fresh decision level; the boundary array grows on demand because
   assumption levels (one per assumption, some empty) can push the level
   count past the variable count *)
let new_level (s : t) : unit =
  if s.decision_level + 2 >= Array.length s.trail_lim then
    s.trail_lim <- grow_array s.trail_lim (2 * Array.length s.trail_lim) 0;
  s.trail_lim.(s.decision_level) <- s.trail_size;
  s.decision_level <- s.decision_level + 1

(** Add a problem clause (internal lits) at decision level 0. Duplicate
    literals are removed, tautologies skipped, and literals already
    false at level 0 dropped (level-0 facts are permanent). Sets
    [contradiction] if the database became trivially unsat. *)
let add_clause_internal (s : t) (lits : int array) : unit =
  if not s.contradiction then begin
    assert (s.decision_level = 0);
    (* simplify: dedupe, drop level-0-false lits, detect tautology and
       level-0-satisfied clauses (first-occurrence order preserved) *)
    let tautology = ref false and satisfied = ref false in
    let kept = ref [] and n_kept = ref 0 in
    Array.iter
      (fun l ->
        if not (!tautology || !satisfied) then
          match lit_value s l with
          | 1 -> satisfied := true
          | -1 -> ()
          | _ ->
            if List.exists (fun k -> k = neg l) !kept then tautology := true
            else if not (List.exists (fun k -> k = l) !kept) then begin
              kept := l :: !kept;
              incr n_kept
            end)
      lits;
    if not (!tautology || !satisfied) then begin
      let lits = Array.of_list (List.rev !kept) in
      match !n_kept with
      | 0 -> s.contradiction <- true
      | 1 ->
        (match lit_value s lits.(0) with
        | -1 -> s.contradiction <- true
        | 1 -> ()
        | _ -> enqueue s lits.(0) None)
      | _ ->
        let c =
          { lits; w1 = 0; w2 = 1; learnt = false; id = s.next_id; lbd = 0;
            deleted = false }
        in
        s.next_id <- s.next_id + 1;
        s.n_problem <- s.n_problem + 1;
        push_clause s c;
        watch s (neg lits.(0)) c;
        watch s (neg lits.(1)) c
    end
  end

(* propagate; returns the conflicting clause, if any *)
let propagate (s : t) : clause_rec option =
  let conflict = ref None in
  while !conflict = None && s.qhead < s.trail_size do
    let l = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    (* literals watching [l] may become falsified: clauses watch the
       negation of their watched literal, so visiting watches.(l) visits
       clauses where watched literal = neg l just became false *)
    let watching = s.watches.(l) in
    s.watches.(l) <- [];
    let rec process = function
      | [] -> ()
      | c :: rest -> (
        if !conflict <> None then begin
          (* put back untouched *)
          s.watches.(l) <- c :: s.watches.(l);
          process rest
        end
        else begin
          (* identify which watch is falsified *)
          let falsified_idx =
            if neg c.lits.(c.w1) = l then c.w1
            else c.w2
          in
          let other_idx = if falsified_idx = c.w1 then c.w2 else c.w1 in
          let other = c.lits.(other_idx) in
          if lit_value s other = 1 then begin
            (* clause satisfied; keep watching *)
            s.watches.(l) <- c :: s.watches.(l);
            process rest
          end
          else begin
            (* search a replacement watch *)
            let n = Array.length c.lits in
            let found = ref (-1) in
            let i = ref 0 in
            while !found < 0 && !i < n do
              let cand = c.lits.(!i) in
              if !i <> falsified_idx && !i <> other_idx && lit_value s cand >= 0
              then found := !i;
              incr i
            done;
            if !found >= 0 then begin
              (* move the watch *)
              if falsified_idx = c.w1 then c.w1 <- !found else c.w2 <- !found;
              watch s (neg c.lits.(!found)) c;
              process rest
            end
            else begin
              (* unit or conflict *)
              s.watches.(l) <- c :: s.watches.(l);
              (match lit_value s other with
              | -1 -> conflict := Some c
              | _ -> enqueue s other (Some c));
              process rest
            end
          end
        end)
    in
    process watching
  done;
  !conflict

let bump (s : t) v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 1 to s.nvars do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100;
    heapify s
  end
  else if s.heap_pos.(v) >= 0 then sift_up s v s.heap_pos.(v)

let decay (s : t) = s.var_inc <- s.var_inc /. 0.95

(* first-UIP conflict analysis; returns (learnt clause lits, backjump level) *)
let analyze (s : t) (confl : clause_rec) : int array * int =
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let index = ref (s.trail_size - 1) in
  let reason_lits (c : clause_rec) skip_p =
    Array.to_list c.lits
    |> List.filter (fun l -> (not skip_p) || l <> !p)
  in
  let current = ref (reason_lits confl false) in
  let btlevel = ref 0 in
  let continue = ref true in
  while !continue do
    List.iter
      (fun q ->
        let v = var_of_lit q in
        if (not s.seen.(v)) && s.level.(v) > 0 then begin
          s.seen.(v) <- true;
          bump s v;
          if s.level.(v) = s.decision_level then incr counter
          else begin
            learnt := q :: !learnt;
            if s.level.(v) > !btlevel then btlevel := s.level.(v)
          end
        end)
      !current;
    (* pick next literal from trail *)
    let rec next_seen i =
      let v = var_of_lit s.trail.(i) in
      if s.seen.(v) then i else next_seen (i - 1)
    in
    index := next_seen !index;
    p := s.trail.(!index);
    let v = var_of_lit !p in
    s.seen.(v) <- false;
    decr counter;
    decr index;
    if !counter = 0 then continue := false
    else
      current :=
        (match s.reason.(v) with
        | Some c -> reason_lits c true
        | None -> []) ;
  done;
  let lits = Array.of_list (neg !p :: !learnt) in
  (* clear seen *)
  Array.iter (fun l -> s.seen.(var_of_lit l) <- false) lits;
  (lits, !btlevel)

let backjump (s : t) (target_level : int) : unit =
  if s.decision_level > target_level then begin
    let boundary = s.trail_lim.(target_level) in
    for i = s.trail_size - 1 downto boundary do
      let v = var_of_lit s.trail.(i) in
      s.assign.(v) <- 0;
      s.reason.(v) <- None;
      heap_insert s v
    done;
    s.trail_size <- boundary;
    s.qhead <- boundary;
    s.decision_level <- target_level
  end

(* the decision literal: the heap's first unassigned variable in its
   saved phase. It stays in the heap, assigned, until a later pick pops
   it, so a decision abandoned for the budget needs no re-insertion *)
let rec pick_branch (s : t) : int option =
  if s.heap_len = 0 then None
  else begin
    let v = s.heap.(0) in
    if s.assign.(v) <> 0 then begin
      heap_pop s;
      pick_branch s
    end
    else Some (if s.phase.(v) then 2 * v else (2 * v) + 1)
  end

(* literal block distance: distinct decision levels among the lits *)
let lbd_of (s : t) (lits : int array) : int =
  s.lbd_tick <- s.lbd_tick + 1;
  let tick = s.lbd_tick in
  let n = ref 0 in
  Array.iter
    (fun l ->
      let lv = s.level.(var_of_lit l) in
      if s.lbd_stamp.(lv) <> tick then begin
        s.lbd_stamp.(lv) <- tick;
        incr n
      end)
    lits;
  !n

(* attach a freshly learnt clause and enqueue its asserting literal
   (lits.(0)); the caller has already backjumped to btlevel *)
let learn (s : t) (lits : int array) (btlevel : int) : unit =
  match Array.length lits with
  | 1 -> enqueue s lits.(0) None
  | _ ->
    let lbd = lbd_of s lits in
    let c =
      { lits; w1 = 0; w2 = 1; learnt = true; id = s.next_id; lbd;
        deleted = false }
    in
    s.next_id <- s.next_id + 1;
    (* the second watch should be a literal from btlevel *)
    let si = ref 1 in
    Array.iteri
      (fun i l -> if i > 0 && s.level.(var_of_lit l) = btlevel then si := i)
      lits;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!si);
    lits.(!si) <- tmp;
    push_clause s c;
    s.learnt_live <- s.learnt_live + 1;
    watch s (neg lits.(0)) c;
    watch s (neg lits.(1)) c;
    enqueue s lits.(0) (Some c)

(** Clause-database reduction at decision level 0: delete the worst half
    of the long learnt clauses (highest LBD first, newest first among
    ties), compact storage, and rebuild the watch lists. Level-0 reasons
    are cleared first — conflict analysis never resolves on level-0
    literals, so no clause is pinned. Deterministic: the order is a pure
    function of (lbd, id). *)
let reduce_db (s : t) : unit =
  assert (s.decision_level = 0);
  for i = 0 to s.trail_size - 1 do
    s.reason.(var_of_lit s.trail.(i)) <- None
  done;
  (* candidates: learnt clauses longer than binary *)
  let cands = ref [] and n_cands = ref 0 in
  for i = s.clause_len - 1 downto 0 do
    let c = s.clause_data.(i) in
    if c.learnt && (not c.deleted) && Array.length c.lits > 2 then begin
      cands := c :: !cands;
      incr n_cands
    end
  done;
  let arr = Array.of_list !cands in
  (* worst first: higher LBD, then newer *)
  Array.sort
    (fun a b ->
      if a.lbd <> b.lbd then compare b.lbd a.lbd else compare b.id a.id)
    arr;
  let target = max 0 (s.learnt_live - (s.max_learnts / 2)) in
  let drop = min (Array.length arr) target in
  for i = 0 to drop - 1 do
    arr.(i).deleted <- true
  done;
  s.learnt_live <- s.learnt_live - drop;
  s.learnt_dropped <- s.learnt_dropped + drop;
  s.reduces <- s.reduces + 1;
  (* compact, preserving storage order *)
  let j = ref 0 in
  for i = 0 to s.clause_len - 1 do
    let c = s.clause_data.(i) in
    if not c.deleted then begin
      s.clause_data.(!j) <- c;
      incr j
    end
  done;
  Array.fill s.clause_data !j (s.clause_len - !j) dummy_clause;
  s.clause_len <- !j;
  (* rebuild watches in storage order *)
  Array.fill s.watches 0 (Array.length s.watches) [];
  for i = 0 to s.clause_len - 1 do
    let c = s.clause_data.(i) in
    watch s (neg c.lits.(c.w1)) c;
    watch s (neg c.lits.(c.w2)) c
  done

(* reduce when the live learnt count exceeds the ceiling; the ceiling
   then grows geometrically (x1.5) so reductions become rarer as the
   session ages *)
let maybe_reduce (s : t) : unit =
  if s.learnt_live > s.max_learnts then begin
    reduce_db s;
    s.max_learnts <- s.max_learnts + (s.max_learnts / 2)
  end

(* process-wide count of completed queries (single-shot [solve] calls
   and incremental-session queries); Atomic so pool workers in other
   domains are counted too *)
let call_counter = Atomic.make 0

let total_calls () = Atomic.get call_counter

(** One query against the live session. [assumptions] (internal-encoded
    via DIMACS below) become retractable decision levels 1..k, MiniSat
    style: learnt clauses never depend on them, so everything learnt
    survives into later queries. Budgets are per-call. *)
let solve_session (s : t) ~(assumptions : int list) ~max_conflicts
    ~max_decisions : result =
  if List.mem 0 assumptions then invalid_arg "Solver: assumption literal 0";
  Atomic.incr call_counter;
  s.queries <- s.queries + 1;
  if s.queries > 1 then s.learnt_reused <- s.learnt_reused + s.learnt_live;
  if s.contradiction then Unsat
  else begin
    List.iter (fun l -> ensure_vars s (abs l)) assumptions;
    let assumps = Array.of_list (List.map lit_of_dimacs assumptions) in
    let n_assumps = Array.length assumps in
    let c0 = s.conflicts and d0 = s.decisions in
    let over_budget () =
      (match max_conflicts with
      | Some b -> s.conflicts - c0 >= b
      | None -> false)
      ||
      match max_decisions with
      | Some b -> s.decisions - d0 >= b
      | None -> false
    in
    backjump s 0;
    (* query end is a level-0 boundary too: shrink the DB here so a
       query whose conflicts outpace its restarts cannot leave the live
       learnt count above the ceiling *)
    let finish r =
      backjump s 0;
      maybe_reduce s;
      r
    in
    try
      (match propagate s with Some _ -> raise Unsat_exception | None -> ());
      maybe_reduce s;
      let restart_interval = ref 256 in
      let result = ref None in
      while !result = None do
        let budget = ref !restart_interval in
        (try
           while !result = None do
             match propagate s with
             | Some confl ->
               s.conflicts <- s.conflicts + 1;
               decr budget;
               if s.decision_level = 0 then raise Unsat_exception;
               if over_budget () then result := Some Unknown
               else begin
                 let lits, btlevel = analyze s confl in
                 backjump s btlevel;
                 learn s lits btlevel;
                 decay s;
                 if !budget <= 0 then begin
                   (* restart; a safe point to shrink the clause DB *)
                   backjump s 0;
                   maybe_reduce s;
                   raise Exit
                 end
               end
             | None ->
               if s.decision_level < n_assumps then begin
                 (* re-assert assumptions in order; level i belongs to
                    assumption i, so backjumps retract and this loop
                    re-establishes them *)
                 let a = assumps.(s.decision_level) in
                 match lit_value s a with
                 | 1 -> new_level s (* already holds: empty level *)
                 | -1 -> raise Assumption_unsat
                 | _ ->
                   if over_budget () then result := Some Unknown
                   else begin
                     new_level s;
                     enqueue s a None
                   end
               end
               else begin
                 match pick_branch s with
                 | None ->
                   (* full assignment found *)
                   let model = Array.make (s.nvars + 1) false in
                   for v = 1 to s.nvars do
                     model.(v) <- s.assign.(v) = 1
                   done;
                   result := Some (Sat model)
                 | Some l ->
                   if over_budget () then result := Some Unknown
                   else begin
                     s.decisions <- s.decisions + 1;
                     new_level s;
                     enqueue s l None
                   end
               end
           done
         with Exit -> restart_interval := !restart_interval * 2)
      done;
      finish (match !result with Some r -> r | None -> assert false)
    with
    | Unsat_exception ->
      (* refuted at level 0: the formula itself is unsat, permanently *)
      s.contradiction <- true;
      finish Unsat
    | Assumption_unsat -> finish Unsat
  end

(** The persistent incremental engine. *)
module Incremental = struct
  type session = t

  type stats = {
    queries : int;          (** solve calls against this session *)
    conflicts : int;        (** cumulative, monotone across the session *)
    decisions : int;
    propagations : int;
    learnt_live : int;      (** learnt clauses currently retained *)
    learnt_reused : int;
        (** cumulative: live learnt clauses at each query start after
            the first — the work later queries inherited *)
    learnt_dropped : int;   (** cumulative clauses removed by reduction *)
    learnt_ceiling : int;   (** current reduce ceiling *)
    reduces : int;          (** reduction passes performed *)
  }

  let create ?nvars ?reduce_base () : session =
    create_session ?nvars ?reduce_base ()

  let nvars (s : session) = s.nvars

  let ensure_vars = ensure_vars

  let add_clause (s : session) (clause : int list) : unit =
    assert (s.decision_level = 0);
    if List.mem 0 clause then invalid_arg "Incremental.add_clause: literal 0";
    List.iter (fun l -> ensure_vars s (abs l)) clause;
    add_clause_internal s
      (Array.of_list (List.map lit_of_dimacs clause))

  let add_cnf (s : session) (f : Cnf.t) : unit =
    ensure_vars s (Cnf.var_count f);
    List.iter
      (fun clause -> add_clause_internal s (Array.map lit_of_dimacs clause))
      (Cnf.clause_list f)

  let attach (s : session) (f : Cnf.t) : unit =
    (match s.source with
    | Some g when g != f -> invalid_arg "Incremental.attach: already attached"
    | _ -> ());
    s.source <- Some f

  (* pull the delta the caller encoded into the attached CNF since the
     last sync: new variables then new clauses, in addition order *)
  let sync (s : session) : unit =
    match s.source with
    | None -> ()
    | Some f ->
      ensure_vars s (Cnf.var_count f);
      List.iter
        (fun clause -> add_clause_internal s (Array.map lit_of_dimacs clause))
        (Cnf.clauses_from f s.synced);
      s.synced <- Cnf.clause_count f

  let solve_stats ?(assumptions : int list = []) ?max_conflicts
      ?max_decisions (s : session) : result * int =
    sync s;
    let before = s.conflicts in
    let r = solve_session s ~assumptions ~max_conflicts ~max_decisions in
    (r, s.conflicts - before)

  let solve ?assumptions ?max_conflicts ?max_decisions (s : session) : result
      =
    fst (solve_stats ?assumptions ?max_conflicts ?max_decisions s)

  let stats (s : session) : stats =
    { queries = s.queries; conflicts = s.conflicts; decisions = s.decisions;
      propagations = s.propagations; learnt_live = s.learnt_live;
      learnt_reused = s.learnt_reused; learnt_dropped = s.learnt_dropped;
      learnt_ceiling = s.max_learnts; reduces = s.reduces }
end

(** Solve the formula: a one-query session. [assumptions] are literals
    (DIMACS convention) asserted for this query only.

    [max_conflicts]/[max_decisions] are hard resource budgets: when the
    search would exceed either, it stops and returns {!Unknown} instead
    of looping indefinitely on a hard instance. Conflicts at decision
    level 0 still conclude [Unsat] regardless of budget. *)
let solve ?(assumptions : int list = []) ?max_conflicts ?max_decisions
    (f : Cnf.t) : result =
  let s = create_session ~nvars:(Cnf.var_count f) () in
  Incremental.add_cnf s f;
  solve_session s ~assumptions ~max_conflicts ~max_decisions

(** Value of a DIMACS variable in a model. *)
let model_value (model : bool array) (v : int) : bool =
  v < Array.length model && model.(v)
