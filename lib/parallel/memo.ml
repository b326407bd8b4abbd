type ('k, 'v) t = {
  mu : Mutex.t;
  tbl : ('k, 'v) Hashtbl.t;
  load : ('k -> 'v option) option;
  save : ('k -> 'v -> unit) option;
}

let create ?(size = 64) ?load ?save () =
  { mu = Mutex.create (); tbl = Hashtbl.create size; load; save }

(* [No_sharing] makes the blob a function of structure alone: the
   digest is stable across processes and equal for equal values however
   they are laid out in memory *)
let digest (x : 'a) : string =
  Digest.to_hex (Digest.string (Marshal.to_string x [ Marshal.No_sharing ]))

(* In-memory lookup, then the [load] hook outside the lock, so a slow
   load never blocks other keys; a load hit is installed *)
let find_opt (t : ('k, 'v) t) (k : 'k) : 'v option =
  match Mutex.protect t.mu (fun () -> Hashtbl.find_opt t.tbl k) with
  | Some v -> Some v
  | None ->
    let loaded = Option.bind t.load (fun load -> load k) in
    Option.iter
      (fun v -> Mutex.protect t.mu (fun () -> Hashtbl.replace t.tbl k v))
      loaded;
    loaded

let set (t : ('k, 'v) t) (k : 'k) (v : 'v) : unit =
  Mutex.protect t.mu (fun () -> Hashtbl.replace t.tbl k v);
  Option.iter (fun save -> save k v) t.save

let find_or_compute (t : ('k, 'v) t) (k : 'k) (compute : unit -> 'v) :
    'v * bool =
  match find_opt t k with
  | Some v -> (v, true)
  | None ->
    let v = compute () in
    set t k v;
    (v, false)

type ('k, 'v) resolution = {
  values : 'v list;
  uniques : ('k * 'v) list;
  hits : int;
  computed : int;
  skipped : int;
}

let resolve ?(jobs = 1) ?should_stop ?(keep = fun _ -> true) ~recover
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
  let hits = Hashtbl.length resolved in
  let outcomes =
    Pool.map_ordered ?should_stop (Pool.create ~jobs)
      (fun (_, x) -> compute x) misses
  in
  let computed = ref 0 and skipped = ref 0 in
  List.iter2
    (fun (k, x) outcome ->
      let v =
        match outcome with
        | Pool.Value v ->
          incr computed;
          if keep v then set t k v;
          v
        | Pool.Raised Out_of_memory -> raise Out_of_memory
        | Pool.Raised e ->
          incr computed;
          recover x (Some e)
        | Pool.Skipped ->
          incr skipped;
          recover x None
      in
      Hashtbl.replace resolved k v)
    misses outcomes;
  let value k = Hashtbl.find resolved k in
  { values = List.map (fun (k, _) -> value k) items;
    uniques = List.map (fun (k, _) -> (k, value k)) uniques;
    hits; computed = !computed; skipped = !skipped }
