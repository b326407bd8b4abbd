type ('k, 'v) t = {
  mu : Mutex.t;
  tbl : ('k, 'v) Hashtbl.t;
  claims : ('k, unit) Hashtbl.t;  (* keys a caller is computing *)
  released : Condition.t;  (* broadcast whenever a claim is dropped *)
  load : ('k -> 'v option) option;
  save : ('k -> 'v -> unit) option;
  mutable hits : int;  (* under [mu] *)
  mutable computed : int;
}

let create ?(size = 64) ?load ?save () =
  { mu = Mutex.create (); tbl = Hashtbl.create size; claims = Hashtbl.create 8;
    released = Condition.create (); load; save; hits = 0; computed = 0 }

let counts (t : ('k, 'v) t) : int * int =
  Mutex.protect t.mu (fun () -> (t.hits, t.computed))

(* [No_sharing] makes the blob a function of structure alone: the
   digest is stable across processes and equal for equal values however
   they are laid out in memory *)
let digest (x : 'a) : string =
  Digest.to_hex (Digest.string (Marshal.to_string x [ Marshal.No_sharing ]))

let load (t : ('k, 'v) t) (k : 'k) : 'v option =
  Option.bind t.load (fun load -> load k)

(* In-memory lookup, then the [load] hook outside the lock, so a slow
   load never blocks other keys; a load hit is installed *)
let find_opt (t : ('k, 'v) t) (k : 'k) : 'v option =
  match Mutex.protect t.mu (fun () -> Hashtbl.find_opt t.tbl k) with
  | Some v -> Some v
  | None ->
    let loaded = load t k in
    Option.iter
      (fun v -> Mutex.protect t.mu (fun () -> Hashtbl.replace t.tbl k v))
      loaded;
    loaded

(* [k]'s value and whether it was a hit. A value in memory is a hit, and
   so is one a caller holding the claim on [k] puts there: this caller
   waits for it. Otherwise this caller claims [k] and runs [find],
   which returns the value and whether it was found rather than
   computed, outside the lock; the critical section that drops the
   claim puts a found or [keep]-accepted value in memory. An exception
   drops the claim and propagates, and a waiting caller then claims [k]
   itself. *)
let claimed (t : ('k, 'v) t) (k : 'k) ~(keep : 'v -> bool)
    (find : unit -> 'v * bool) : 'v * bool =
  let rec claim () =
    match Hashtbl.find_opt t.tbl k with
    | Some v ->
      t.hits <- t.hits + 1;
      Some v
    | None when Hashtbl.mem t.claims k ->
      Condition.wait t.released t.mu;
      claim ()
    | None ->
      Hashtbl.replace t.claims k ();
      None
  in
  let release f =
    Mutex.protect t.mu (fun () ->
        f ();
        Hashtbl.remove t.claims k;
        Condition.broadcast t.released)
  in
  match Mutex.protect t.mu claim with
  | Some v -> (v, true)
  | None -> (
    match find () with
    | exception e ->
      release ignore;
      raise e
    | (v, hit) as r ->
      release (fun () ->
          if hit then t.hits <- t.hits + 1 else t.computed <- t.computed + 1;
          if hit || keep v then Hashtbl.replace t.tbl k v);
      r)

let save (t : ('k, 'v) t) (k : 'k) (v : 'v) : unit =
  Option.iter (fun save -> save k v) t.save

let find_or_compute (t : ('k, 'v) t) (k : 'k) (compute : unit -> 'v) : 'v =
  let v, hit =
    claimed t k ~keep:(fun _ -> true) (fun () ->
        match load t k with Some v -> (v, true) | None -> (compute (), false))
  in
  if not hit then save t k v;
  v

type ('k, 'v) resolution = {
  values : 'v list;
  uniques : ('k * 'v) list;
  hits : int;
  computed : int;
}

let resolve ?(jobs = 1) ?(keep = fun _ -> true) ~recover
    (t : ('k, 'v) t) (compute : 'a -> 'v) (items : ('k * 'a) list) :
    ('k, 'v) resolution =
  let seen = Hashtbl.create 64 in
  let uniques =
    List.filter
      (fun (k, _) ->
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      items
  in
  (* this call's key -> value table for the fan-out; distinct from [t],
     which only ever holds kept computed values and loaded ones *)
  let resolved = Hashtbl.create 64 in
  let misses =
    List.filter
      (fun (k, _) ->
        match find_opt t k with
        | Some v ->
          Hashtbl.replace resolved k v;
          false
        | None -> true)
      uniques
  in
  let hits = ref (Hashtbl.length resolved) and computed = ref 0 in
  Mutex.protect t.mu (fun () -> t.hits <- t.hits + !hits);
  (* the pre-pass looked each miss up: a task only claims and computes *)
  let outcomes =
    Pool.map_ordered (Pool.create ~jobs)
      (fun (k, x) -> claimed t k ~keep (fun () -> (compute x, false)))
      misses
  in
  List.iter2
    (fun (k, x) outcome ->
      let v =
        match outcome with
        | Pool.Value (v, true) ->
          incr hits;
          v
        | Pool.Value (v, false) ->
          incr computed;
          if keep v then save t k v;
          v
        | Pool.Raised Out_of_memory -> raise Out_of_memory
        | Pool.Raised e ->
          incr computed;
          recover x e
      in
      Hashtbl.replace resolved k v)
    misses outcomes;
  let value k = Hashtbl.find resolved k in
  { values = List.map (fun (k, _) -> value k) items;
    uniques = List.map (fun (k, _) -> (k, value k)) uniques;
    hits = !hits; computed = !computed }
