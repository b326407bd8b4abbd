(** A small mutable digraph over integer nodes interned from string
    labels, supporting the traversals the dataflow analysis needs:
    reachability in both directions. *)

type t = {
  ids : (string, int) Hashtbl.t;
  succ : (int, int list) Hashtbl.t;
  pred : (int, int list) Hashtbl.t;
}

let create () =
  { ids = Hashtbl.create 64; succ = Hashtbl.create 64; pred = Hashtbl.create 64 }

(** Intern a label, creating the node on first use. *)
let node g label =
  match Hashtbl.find_opt g.ids label with
  | Some id -> id
  | None ->
    let id = Hashtbl.length g.ids in
    Hashtbl.add g.ids label id;
    id

let find_node g label = Hashtbl.find_opt g.ids label

let succ g id = Option.value (Hashtbl.find_opt g.succ id) ~default:[]

let pred g id = Option.value (Hashtbl.find_opt g.pred id) ~default:[]

let add_edge g a b =
  let add tbl k v =
    let old = Option.value (Hashtbl.find_opt tbl k) ~default:[] in
    if not (List.mem v old) then Hashtbl.replace tbl k (v :: old)
  in
  add g.succ a b;
  add g.pred b a

(* breadth-first closure following [next] *)
let closure next (starts : int list) : (int, unit) Hashtbl.t =
  let seen = Hashtbl.create 64 in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if not (Hashtbl.mem seen s) then begin
        Hashtbl.add seen s ();
        Queue.add s q
      end)
    starts;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun w ->
        if not (Hashtbl.mem seen w) then begin
          Hashtbl.add seen w ();
          Queue.add w q
        end)
      (next v)
  done;
  seen

(** Nodes reachable from [starts] following edges forward. *)
let reachable g starts = closure (succ g) starts

(** Nodes from which some node in [starts] is reachable (backward cone). *)
let coreachable g starts = closure (pred g) starts
