(** A CDCL SAT solver: two-watched-literal propagation, first-UIP conflict
    analysis with clause learning, VSIDS-style branching activity with
    phase saving, and geometric restarts. Sized for the circuit problems
    the SAT attack generates (thousands of variables).

    Branching takes the unassigned variable of highest activity, the
    lowest index among equal activities, from two tiers. Variables of
    positive activity live in a binary max-heap ordered by (activity
    descending, index ascending); a variable no conflict has bumped
    (activity 0) stays out of it, behind a cursor below which every such
    variable is assigned. A decision takes the heap's top once the lazy
    pops have left an unassigned variable there, and otherwise the first
    unassigned variable at or above the cursor. Any positive activity
    outranks 0, so this is the maximum of the same strict order over the
    unassigned variables, whatever the tiers hold.

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
  (* per literal: the clauses watching it, as indices into
     [clause_data], in a stack whose top (the last used slot) is the
     head of the list a [c :: ws] representation would hold; see
     [propagate] for the order it replays *)
  mutable watches : int array array;
  mutable watch_len : int array;
  mutable assign : int array;          (* per var: 0 unknown, 1 true, -1 false *)
  mutable level : int array;           (* per var *)
  mutable reason : int array;          (* per var: clause index or [no_clause] *)
  mutable trail : int array;           (* literals in assignment order *)
  mutable trail_size : int;
  mutable trail_lim : int array;       (* decision level boundaries *)
  mutable decision_level : int;
  mutable qhead : int;
  mutable activity : float array;
  mutable var_inc : float;
  mutable heap : int array;            (* branching order, see [before];
                                          only positive activities *)
  mutable heap_len : int;
  mutable heap_pos : int array;        (* per var: slot in [heap], -1 if out *)
  mutable zcur : int;                  (* every activity-0 variable below
                                          it is assigned *)
  mutable phase : bool array;          (* saved phases *)
  mutable seen : bool array;           (* scratch for analyze *)
  mutable learnt_buf : int array;      (* scratch for analyze *)
  mutable load_buf : int array;        (* scratch for clause loading: one
                                          per session, since sessions in
                                          different domains load at once *)
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

(* Watches, reasons and conflicts name a clause by its index in
   [clause_data]. Being ints, they are stored without the write barrier
   a pointer store into an old array pays. [reduce_db] renumbers the
   clauses as it compacts them, clears every reason first and rebuilds
   every watch list after. *)
let no_clause = -1

let default_reduce_base = 2_000

let grow_array a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* ---- branching order: a binary max-heap of the variables of
   positive activity, then a cursor over those of activity 0 ---- *)

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

(* an unassigned variable enters the tier its activity names *)
let requeue (s : t) v =
  if s.activity.(v) > 0.0 then heap_insert s v
  else if v < s.zcur then s.zcur <- v

(* after the 1e100 rescale every heap member re-enters by its new
   activity: one that underflowed to 0 joins the cursor's tier, and
   underflow can also tie two activities that the index must then
   break *)
let rescale_heap (s : t) =
  let members = Array.sub s.heap 0 s.heap_len in
  s.heap_len <- 0;
  Array.iter
    (fun v ->
      s.heap_pos.(v) <- -1;
      requeue s v)
    members

(** Grow per-variable state so variables [1..n] exist. A new variable
    has activity 0 and an index above every other, so it already sits
    in the cursor's tier and nothing is inserted. Amortized O(1):
    capacity doubles. Safe on a live session — only appends. *)
let ensure_vars (s : t) (n : int) : unit =
  if n > s.var_cap then begin
    let cap = ref s.var_cap in
    while n > !cap do
      cap := !cap * 2
    done;
    let cap = !cap in
    s.watches <- grow_array s.watches ((2 * (cap + 1)) + 2) [||];
    s.watch_len <- grow_array s.watch_len ((2 * (cap + 1)) + 2) 0;
    s.assign <- grow_array s.assign (cap + 1) 0;
    s.level <- grow_array s.level (cap + 1) 0;
    s.reason <- grow_array s.reason (cap + 1) no_clause;
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
  if n > s.nvars then s.nvars <- n

(* an empty session whose variables [1..nvars] enter through
   [ensure_vars], like every later variable *)
let create_session ?(nvars = 0) ?(reduce_base = default_reduce_base) () =
  let cap = max nvars 16 in
  let s =
    { nvars = 0; var_cap = cap;
      clause_data = Array.make 64 dummy_clause;
      clause_len = 0;
      watches = Array.make ((2 * (cap + 1)) + 2) [||];
      watch_len = Array.make ((2 * (cap + 1)) + 2) 0;
      assign = Array.make (cap + 1) 0;
      level = Array.make (cap + 1) 0;
      reason = Array.make (cap + 1) no_clause;
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
      zcur = 1;
      phase = Array.make (cap + 1) false;
      seen = Array.make (cap + 1) false;
      learnt_buf = Array.make 16 0;
      load_buf = Array.make 16 0;
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

let enqueue (s : t) (l : int) (why : int) : unit =
  let v = var_of_lit l in
  s.assign.(v) <- (if l land 1 = 0 then 1 else -1);
  s.level.(v) <- s.decision_level;
  s.reason.(v) <- why;
  s.phase.(v) <- l land 1 = 0;
  s.trail.(s.trail_size) <- l;
  s.trail_size <- s.trail_size + 1

(* push clause [c] on [l]'s stack: what [c :: ws] would make the new
   head *)
let watch (s : t) (l : int) (c : int) : unit =
  let n = s.watch_len.(l) and ws = s.watches.(l) in
  if n = Array.length ws then begin
    let grown = Array.make (max 4 (2 * n)) 0 in
    Array.blit ws 0 grown 0 n;
    s.watches.(l) <- grown;
    grown.(n) <- c
  end
  else ws.(n) <- c;
  s.watch_len.(l) <- n + 1

(* store [c]; returns its index *)
let push_clause (s : t) (c : clause_rec) : int =
  if s.clause_len = Array.length s.clause_data then
    s.clause_data <- grow_array s.clause_data (2 * s.clause_len) dummy_clause;
  s.clause_data.(s.clause_len) <- c;
  s.clause_len <- s.clause_len + 1;
  s.clause_len - 1

(* a fresh decision level; the boundary array grows on demand because
   assumption levels (one per assumption, some empty) can push the level
   count past the variable count *)
let new_level (s : t) : unit =
  if s.decision_level + 2 >= Array.length s.trail_lim then
    s.trail_lim <- grow_array s.trail_lim (2 * Array.length s.trail_lim) 0;
  s.trail_lim.(s.decision_level) <- s.trail_size;
  s.decision_level <- s.decision_level + 1

(** Add a problem clause (DIMACS literals) at decision level 0.
    Duplicate literals are removed, keeping first occurrences in order;
    tautologies and clauses already satisfied at level 0 are skipped;
    literals already false at level 0 are dropped (level-0 facts are
    permanent). Sets [contradiction] if the database became trivially
    unsat. The literals are converted and deduplicated in the session's
    [load_buf], so a skipped clause allocates nothing and a kept one only
    its literal array. *)
let add_clause_internal (s : t) (c : Cnf.clause) : unit =
  if not s.contradiction then begin
    assert (s.decision_level = 0);
    let len = Array.length c in
    if len > Array.length s.load_buf then
      s.load_buf <- Array.make (max len (2 * Array.length s.load_buf)) 0;
    let buf = s.load_buf in
    let n = ref 0 and skip = ref false and i = ref 0 in
    while (not !skip) && !i < len do
      let l = lit_of_dimacs c.(!i) in
      incr i;
      match lit_value s l with
      | 1 -> skip := true (* satisfied at level 0 *)
      | -1 -> () (* false at level 0 *)
      | _ ->
        let j = ref 0 and dup = ref false in
        while (not !dup) && !j < !n do
          let k = buf.(!j) in
          if k = neg l then skip := true (* tautology *)
          else if k = l then dup := true;
          incr j
        done;
        if not (!skip || !dup) then begin
          buf.(!n) <- l;
          incr n
        end
    done;
    if not !skip then
      match !n with
      | 0 -> s.contradiction <- true
      | 1 ->
        (* a kept literal is unassigned, and loading assigns nothing *)
        enqueue s buf.(0) no_clause
      | n ->
        let c =
          { lits = Array.sub buf 0 n; w1 = 0; w2 = 1; learnt = false;
            id = s.next_id; lbd = 0; deleted = false }
        in
        s.next_id <- s.next_id + 1;
        let ci = push_clause s c in
        watch s (neg c.lits.(0)) ci;
        watch s (neg c.lits.(1)) ci
  end

(* reverse [a.(0 .. n-1)] in place *)
let reverse (a : int array) n =
  for i = 0 to (n / 2) - 1 do
    let t = a.(i) in
    a.(i) <- a.(n - 1 - i);
    a.(n - 1 - i) <- t
  done

(* propagate; returns the conflicting clause, or [no_clause].

   Watch order is a replay of a list representation, which every golden
   was recorded with: each literal's list was visited head first, and
   every clause that stays was pushed back with [c :: ws] in visit
   order. With the head at the top of the stack, reversing the live
   segment puts the head at slot 0, so visiting slots upwards is list
   order; writing the survivors back from slot 0 up leaves the last
   survivor on top, exactly the head the list rebuild would leave.
   No clause is pushed on [l]'s own stack meanwhile: a replacement watch
   is never a false literal. *)
let propagate (s : t) : int =
  let conflict = ref no_clause in
  while !conflict = no_clause && s.qhead < s.trail_size do
    let l = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    (* literals watching [l] may become falsified: clauses watch the
       negation of their watched literal, so visiting watches.(l) visits
       clauses where watched literal = neg l just became false *)
    let ws = s.watches.(l) and n = s.watch_len.(l) in
    reverse ws n;
    let kept = ref 0 in
    for i = 0 to n - 1 do
      let ci = ws.(i) in
      if !conflict <> no_clause then begin
        (* put back untouched *)
        ws.(!kept) <- ci;
        incr kept
      end
      else begin
        let c = s.clause_data.(ci) in
        (* identify which watch is falsified *)
        let falsified_idx = if neg c.lits.(c.w1) = l then c.w1 else c.w2 in
        let other_idx = if falsified_idx = c.w1 then c.w2 else c.w1 in
        let other = c.lits.(other_idx) in
        if lit_value s other = 1 then begin
          (* satisfied; keep watching *)
          ws.(!kept) <- ci;
          incr kept
        end
        else begin
          (* search a replacement watch *)
          let lits = c.lits in
          let len = Array.length lits in
          let found = ref (-1) and j = ref 0 in
          while !found < 0 && !j < len do
            if !j <> falsified_idx && !j <> other_idx
               && lit_value s lits.(!j) >= 0
            then found := !j;
            incr j
          done;
          if !found >= 0 then begin
            (* move the watch *)
            if falsified_idx = c.w1 then c.w1 <- !found else c.w2 <- !found;
            watch s (neg lits.(!found)) ci
          end
          else begin
            (* unit or conflict *)
            ws.(!kept) <- ci;
            incr kept;
            if lit_value s other = -1 then conflict := ci
            else enqueue s other ci
          end
        end
      end
    done;
    s.watch_len.(l) <- !kept
  done;
  !conflict

let bump (s : t) v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 1 to s.nvars do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100;
    rescale_heap s
  end
  (* a bumped variable sits in a conflict or reason clause, so it is
     assigned: out of the heap, it enters at the backjump that
     unassigns it *)
  else if s.heap_pos.(v) >= 0 then sift_up s v s.heap_pos.(v)

let decay (s : t) = s.var_inc <- s.var_inc /. 0.95

(* first-UIP conflict analysis; returns (learnt clause lits, backjump
   level). The asserting literal comes first, then the other literals
   in the reverse of the order they were first met *)
let analyze (s : t) (confl : int) : int array * int =
  let n_learnt = ref 0 in
  let counter = ref 0 in
  let p = ref (-1) in
  let index = ref (s.trail_size - 1) in
  let reason = ref confl in
  let btlevel = ref 0 in
  let continue = ref true in
  while !continue do
    (* the conflict clause whole, then each reason without [p] (the
       literal it implied); [p] is no literal while it is -1 *)
    let lits =
      if !reason = no_clause then [||] else s.clause_data.(!reason).lits
    in
    for i = 0 to Array.length lits - 1 do
      let q = lits.(i) in
      let v = var_of_lit q in
      if q <> !p && (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        bump s v;
        if s.level.(v) = s.decision_level then incr counter
        else begin
          if !n_learnt = Array.length s.learnt_buf then
            s.learnt_buf <- grow_array s.learnt_buf (2 * !n_learnt) 0;
          s.learnt_buf.(!n_learnt) <- q;
          incr n_learnt;
          if s.level.(v) > !btlevel then btlevel := s.level.(v)
        end
      end
    done;
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
    if !counter = 0 then continue := false else reason := s.reason.(v)
  done;
  let n = !n_learnt in
  let lits = Array.make (n + 1) (neg !p) in
  for i = 0 to n - 1 do
    lits.(n - i) <- s.learnt_buf.(i)
  done;
  (* clear seen *)
  for i = 0 to n do
    s.seen.(var_of_lit lits.(i)) <- false
  done;
  (lits, !btlevel)

let backjump (s : t) (target_level : int) : unit =
  if s.decision_level > target_level then begin
    let boundary = s.trail_lim.(target_level) in
    for i = s.trail_size - 1 downto boundary do
      let v = var_of_lit s.trail.(i) in
      s.assign.(v) <- 0;
      s.reason.(v) <- no_clause;
      requeue s v
    done;
    s.trail_size <- boundary;
    s.qhead <- boundary;
    s.decision_level <- target_level
  end

(* the decision literal in its saved phase, or 0 (no literal) once
   every variable is assigned: the heap's top once the assigned
   variables above it are popped, else the first unassigned variable
   from the cursor on. Every unassigned variable of positive activity is
   in the heap, so an empty heap leaves only activity 0 to pick from.
   The pick stays where it is, assigned, until a later pick passes it,
   so a decision abandoned for the budget needs no re-insertion *)
let rec pick_branch (s : t) : int =
  if s.heap_len > 0 && s.assign.(s.heap.(0)) <> 0 then begin
    heap_pop s;
    pick_branch s
  end
  else begin
    let v =
      if s.heap_len > 0 then s.heap.(0)
      else begin
        while s.zcur <= s.nvars && s.assign.(s.zcur) <> 0 do
          s.zcur <- s.zcur + 1
        done;
        if s.zcur > s.nvars then 0 else s.zcur
      end
    in
    if v = 0 then 0 else if s.phase.(v) then 2 * v else (2 * v) + 1
  end

(* literal block distance: distinct decision levels among the lits *)
let lbd_of (s : t) (lits : int array) : int =
  s.lbd_tick <- s.lbd_tick + 1;
  let tick = s.lbd_tick in
  let n = ref 0 in
  for i = 0 to Array.length lits - 1 do
    let lv = s.level.(var_of_lit lits.(i)) in
    if s.lbd_stamp.(lv) <> tick then begin
      s.lbd_stamp.(lv) <- tick;
      incr n
    end
  done;
  !n

(* attach a freshly learnt clause and enqueue its asserting literal
   (lits.(0)); the caller has already backjumped to btlevel *)
let learn (s : t) (lits : int array) (btlevel : int) : unit =
  match Array.length lits with
  | 1 -> enqueue s lits.(0) no_clause
  | n ->
    let lbd = lbd_of s lits in
    let c =
      { lits; w1 = 0; w2 = 1; learnt = true; id = s.next_id; lbd;
        deleted = false }
    in
    s.next_id <- s.next_id + 1;
    (* the second watch should be a literal from btlevel *)
    let si = ref 1 in
    for i = 1 to n - 1 do
      if s.level.(var_of_lit lits.(i)) = btlevel then si := i
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!si);
    lits.(!si) <- tmp;
    let ci = push_clause s c in
    s.learnt_live <- s.learnt_live + 1;
    watch s (neg lits.(0)) ci;
    watch s (neg lits.(1)) ci;
    enqueue s lits.(0) ci

(** Clause-database reduction at decision level 0: delete the worst half
    of the long learnt clauses (highest LBD first, newest first among
    ties), compact storage, and rebuild the watch lists. Level-0 reasons
    are cleared first — conflict analysis never resolves on level-0
    literals, so no clause is pinned. Deterministic: the order is a pure
    function of (lbd, id). *)
let reduce_db (s : t) : unit =
  assert (s.decision_level = 0);
  for i = 0 to s.trail_size - 1 do
    s.reason.(var_of_lit s.trail.(i)) <- no_clause
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
  (* rebuild watches in storage order, under the new indices *)
  Array.fill s.watch_len 0 (Array.length s.watch_len) 0;
  for i = 0 to s.clause_len - 1 do
    let c = s.clause_data.(i) in
    watch s (neg c.lits.(c.w1)) i;
    watch s (neg c.lits.(c.w2)) i
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
      if propagate s <> no_clause then raise Unsat_exception;
      maybe_reduce s;
      let restart_interval = ref 256 in
      let result = ref None in
      while Option.is_none !result do
        let budget = ref !restart_interval in
        (try
           while Option.is_none !result do
             let confl = propagate s in
             if confl <> no_clause then begin
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
             end
             else if s.decision_level < n_assumps then begin
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
                   enqueue s a no_clause
                 end
             end
             else begin
               let l = pick_branch s in
               if l = 0 then begin
                 (* full assignment found *)
                 let model = Array.make (s.nvars + 1) false in
                 for v = 1 to s.nvars do
                   model.(v) <- s.assign.(v) = 1
                 done;
                 result := Some (Sat model)
               end
               else if over_budget () then result := Some Unknown
               else begin
                 s.decisions <- s.decisions + 1;
                 new_level s;
                 enqueue s l no_clause
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
    add_clause_internal s (Array.of_list clause)

  let add_cnf (s : session) (f : Cnf.t) : unit =
    ensure_vars s (Cnf.var_count f);
    Cnf.iter_from f 0 (add_clause_internal s)

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
      Cnf.iter_from f s.synced (add_clause_internal s);
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
