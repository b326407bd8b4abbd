(** Bounded Domain-based work pool; see pool.mli for the contract.

    Scheduling is a single atomic task counter: workers race to claim
    the next index, compute outside any lock, and write into a
    per-index slot of a shared results array (disjoint cells, so no
    further synchronization is needed; [Domain.join] publishes the
    writes to the caller). Input order is preserved by construction —
    slot [i] always holds task [i]'s outcome — which is what lets the
    flow keep its serial output byte-identical under parallelism. *)

module Fi = Alice_fault.Fault

type t = { jobs : int }

let create ~jobs = { jobs = max 1 jobs }

let jobs (pool : t) = pool.jobs

type 'a outcome =
  | Value of 'a
  | Raised of exn

let run_task ~(faults : Fi.t) (f : 'a -> 'b) (x : 'a) : 'b outcome =
  match
    Fi.hit faults "pool.task";
    f x
  with
  | v -> Value v
  | exception e -> Raised e

(* The injected "this worker dies between tasks" fault: the claimed
   slot is charged before the exception escapes [loop], so the task is
   accounted Raised, not silently lost. *)
let check_worker_alive ~(faults : Fi.t) (results : 'b outcome array)
    (i : int) : unit =
  match Fi.check faults "pool.worker" with
  | None | Some (Fi.Delay _) -> ()
  | Some action ->
    let e = Fi.Injected { site = "pool.worker"; action } in
    results.(i) <- Raised e;
    raise e

let map_ordered ?faults (pool : t) (f : 'a -> 'b) (xs : 'a list) :
    'b outcome list =
  let faults = match faults with Some fp -> fp | None -> Fi.global () in
  let tasks = Array.of_list xs in
  let n = Array.length tasks in
  (* every slot is written before the batch returns: by its task, or by
     [check_worker_alive] when the worker dies claiming it *)
  let results = Array.make n (Raised Exit) in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        check_worker_alive ~faults results i;
        results.(i) <- run_task ~faults f tasks.(i);
        loop ()
      end
    in
    (* supervision: an injected worker death escaping the claim/dispatch
       loop costs the one claimed slot (already marked Raised), never
       the pool: the worker re-enters its loop and keeps draining tasks,
       and [Domain.join] below can no longer re-raise into the caller. *)
    let rec supervise () =
      match loop () with () -> () | exception _ -> supervise ()
    in
    supervise ()
  in
  (* a spawn that fails (the runtime holds a bounded number of domains)
     stops the spawning: the workers already running drain every task,
     the caller drains them when none started, and every spawned worker
     is joined, so none outlives the batch *)
  let rec spawn workers k =
    if k = 0 then workers
    else
      match
        Fi.hit faults "pool.spawn";
        Domain.spawn worker
      with
      | d -> spawn (d :: workers) (k - 1)
      | exception _ -> workers
  in
  (* [jobs = 1] spawns no domain: the caller is the one worker *)
  let workers = if pool.jobs = 1 then [] else spawn [] (min pool.jobs n) in
  if workers = [] then worker ();
  List.iter Domain.join workers;
  Array.to_list results
