(** Cluster identification — Algorithm 2 of the paper.

    Fixed-point recombination: start from singleton clusters (one per
    candidate instance) and repeatedly union pairs of current clusters,
    keeping a union when it is new and admissible. A cluster is
    admissible when its aggregated I/O pin count respects the designer
    limit and its members are pairwise dataflow-independent (modules
    exchanging data cannot share one eFPGA, Section 5's "independent
    modules"). *)

module V = Alice_verilog
module A = Alice_analysis
module C = Alice_config

type cluster = {
  members : V.Design.tree list;  (* sorted by path *)
  io_pins : int;                 (* aggregated *)
  key : string;                  (* canonical identity *)
}

let cluster_key (members : V.Design.tree list) : string =
  String.concat "|" (List.map (fun (n : V.Design.tree) -> n.path) members)

let make_cluster (design : V.Elaborate.design) (members : V.Design.tree list) :
    cluster =
  let members =
    List.sort_uniq (fun (a : V.Design.tree) b -> compare a.path b.path) members
  in
  { members;
    io_pins = List.fold_left (fun acc n -> acc + V.Design.io_pins design n) 0 members;
    key = cluster_key members }

let member_count (c : cluster) = List.length c.members

(** CheckParameters of Algorithm 2 on an aggregated cluster. *)
let check_parameters (cfg : C.Flow_config.t) (c : cluster) : bool =
  c.io_pins <= cfg.C.Flow_config.max_io_pins

(* the configured dependence notion, for a whole relation *)
let dependent (cfg : C.Flow_config.t) (df : A.Dataflow.t) :
    V.Design.tree -> V.Design.tree -> bool =
  A.Dataflow.dependence df
    ~transitive:cfg.C.Flow_config.transitive_independence

let cluster_independent (cfg : C.Flow_config.t) (df : A.Dataflow.t)
    (c : cluster) : bool =
  let dependent = dependent cfg df in
  let rec pairwise = function
    | [] -> true
    | x :: rest ->
      List.for_all (fun y -> not (dependent x y)) rest && pairwise rest
  in
  pairwise c.members

(* Candidate sets are multi-word bitsets over the candidates indexed in
   path order, [word_bits] to a word, so member lists come out sorted. *)
let word_bits = 62

(* One cluster of the fixed point: its record, its member set, and the
   candidates at least one member depends on. *)
type entry = { cluster : cluster; set : int array; deps : int array }

(* no word of [a] shares a bit with [b] *)
let misses (a : int array) (b : int array) : bool =
  let k = ref (Array.length a - 1) in
  while !k >= 0 && a.(!k) land b.(!k) = 0 do
    decr k
  done;
  !k < 0

(** The fixed-point of Algorithm 2. Returns all candidate clusters C,
    singletons first, then each round's unions in the order found.

    Every round tries the ordered pairs of the clusters known at its
    start, newest first, as the pseudocode's double loop does, and a
    union is kept when it is new, fits the pin budget and joins
    independent members. A pair of clusters that both predate the
    previous round was tried by it and can only be rejected now: the
    pin and independence checks are pure, and a union seen then is
    seen now. Skipping such pairs (the semi-naive fixed point) keeps
    the same clusters in the same order. *)
let run (df : A.Dataflow.t) (cfg : C.Flow_config.t)
    (candidates : Filtering.result) : cluster list =
  let design = df.A.Dataflow.design in
  let insts = Filtering.candidate_instances candidates in
  let by_path =
    Array.of_list
      (List.sort_uniq (fun (a : V.Design.tree) b -> compare a.path b.path) insts)
  in
  let n = Array.length by_path in
  let words = max 1 ((n + word_bits - 1) / word_bits) in
  let index = Hashtbl.create n in
  Array.iteri (fun i (t : V.Design.tree) -> Hashtbl.replace index t.path i) by_path;
  let add_bit s i =
    s.(i / word_bits) <- s.(i / word_bits) lor (1 lsl (i mod word_bits))
  in
  let mem s i = s.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0 in
  let pins = Array.map (V.Design.io_pins design) by_path in
  let max_pins = cfg.C.Flow_config.max_io_pins in
  (* the dependence relation, each unordered pair asked once; when no
     two candidates fit the pin budget together no union can, and none
     is asked *)
  let deps = Array.init n (fun _ -> Array.make words 0) in
  (match List.sort compare (Array.to_list pins) with
   | p1 :: p2 :: _ when p1 + p2 <= max_pins ->
     let dependent = dependent cfg df in
     for i = 0 to n - 1 do
       for j = i + 1 to n - 1 do
         if dependent by_path.(i) by_path.(j) then begin
           add_bit deps.(i) j;
           add_bit deps.(j) i
         end
       done
     done
   | _ -> ());
  let entries = ref [||] and count = ref 0 in
  let seen : (int array, unit) Hashtbl.t = Hashtbl.create 64 in
  let add set deps io_pins =
    let members = ref [] in
    for i = n - 1 downto 0 do
      if mem set i then members := by_path.(i) :: !members
    done;
    let members = !members in
    let e = { cluster = { members; io_pins; key = cluster_key members }; set; deps } in
    if !count = Array.length !entries then
      entries := Array.append !entries (Array.make (max 16 !count) e);
    !entries.(!count) <- e;
    incr count;
    Hashtbl.add seen set ()
  in
  (* line 2-4: singleton clusters, in candidate order *)
  List.iter
    (fun (inst : V.Design.tree) ->
      let i = Hashtbl.find index inst.path in
      let set = Array.make words 0 in
      add_bit set i;
      if not (Hashtbl.mem seen set) then add set deps.(i) pins.(i))
    insts;
  (* pins of [c2]'s members outside [c1] *)
  let pins_outside (s2 : int array) (s1 : int array) =
    let acc = ref 0 in
    for k = 0 to words - 1 do
      let w = ref (s2.(k) land lnot s1.(k)) and i = ref (k * word_bits) in
      while !w <> 0 do
        if !w land 1 <> 0 then acc := !acc + pins.(!i);
        w := !w lsr 1;
        incr i
      done
    done;
    !acc
  in
  let union = Array.make words 0 in
  let try_union e1 e2 =
    if misses e1.deps e2.set then begin
      let io_pins =
        if misses e1.set e2.set then e1.cluster.io_pins + e2.cluster.io_pins
        else e1.cluster.io_pins + pins_outside e2.set e1.set
      in
      if io_pins <= max_pins then begin
        for k = 0 to words - 1 do
          union.(k) <- e1.set.(k) lor e2.set.(k)
        done;
        if not (Hashtbl.mem seen union) then
          add (Array.copy union)
            (Array.init words (fun k -> e1.deps.(k) lor e2.deps.(k)))
            io_pins
      end
    end
  in
  (* lines 6-23: recombine until no new admissible cluster appears;
     entries from [fresh_from] on were born in the previous round *)
  let rec round fresh_from =
    let top = !count in
    for i1 = top - 1 downto 0 do
      let e1 = !entries.(i1) in
      for i2 = top - 1 downto (if i1 >= fresh_from then 0 else fresh_from) do
        if i2 <> i1 then try_union e1 !entries.(i2)
      done
    done;
    if !count > top then round top
  in
  round 0;
  List.init !count (fun i -> !entries.(i).cluster)

(** Clusters sharing no instance (the disjointness predicate Algorithm 3
    needs to combine eFPGAs). *)
let disjoint (a : cluster) (b : cluster) : bool =
  List.for_all
    (fun (m : V.Design.tree) ->
      List.for_all (fun (n : V.Design.tree) -> m.path <> n.path) b.members)
    a.members
