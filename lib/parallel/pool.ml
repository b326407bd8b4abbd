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
  | Skipped

let run_task ~(faults : Fi.t) (f : 'a -> 'b) (x : 'a) : 'b outcome =
  match
    Fi.hit faults "pool.task";
    f x
  with
  | v -> Value v
  | exception e -> Raised e

(* The injected "this worker dies between tasks" fault: the claimed
   slot is charged before the exception escapes [loop], so the task is
   accounted Raised, not silently Skipped. *)
let check_worker_alive ~(faults : Fi.t) (results : 'b outcome array)
    (i : int) : unit =
  match Fi.check faults "pool.worker" with
  | None | Some (Fi.Delay _) -> ()
  | Some action ->
    let e = Fi.Injected { site = "pool.worker"; action } in
    results.(i) <- Raised e;
    raise e

let map_ordered ?(should_stop = fun () -> false) ?faults (pool : t)
    (f : 'a -> 'b) (xs : 'a list) : 'b outcome list =
  let faults = match faults with Some fp -> fp | None -> Fi.global () in
  let tasks = Array.of_list xs in
  let n = Array.length tasks in
  if n = 0 then []
  else if pool.jobs = 1 then begin
    (* serial bypass: no domain is spawned; semantics are exactly the
       historical serial loop (stop check before each task), with
       injected worker death contained per-slot like a parallel run *)
    let results = Array.make n Skipped in
    Array.iteri
      (fun i x ->
        if not (should_stop ()) then
          match check_worker_alive ~faults results i with
          | () -> results.(i) <- run_task ~faults f x
          | exception Fi.Injected _ -> ())
      tasks;
    Array.to_list results
  end
  else begin
    let results = Array.make n Skipped in
    let next = Atomic.make 0 in
    let stopped = Atomic.make false in
    let worker () =
      let rec loop () =
        if not (Atomic.get stopped) then begin
          let i = Atomic.fetch_and_add next 1 in
          if i < n then
            if should_stop () then Atomic.set stopped true
              (* index [i] stays Skipped: it was claimed but never
                 dispatched; siblings already past the check finish *)
            else begin
              check_worker_alive ~faults results i;
              results.(i) <- run_task ~faults f tasks.(i);
              loop ()
            end
        end
      in
      (* supervision: anything escaping the claim/dispatch loop — an
         injected worker death, a raising [should_stop] — costs at most
         the one claimed slot (already marked Raised), never the pool:
         the worker re-enters its loop and keeps draining tasks, and
         [Domain.join] below can no longer re-raise into the caller. *)
      let rec supervise () =
        match loop () with () -> () | exception _ -> supervise ()
      in
      supervise ()
    in
    (* a spawn that fails (the runtime holds a bounded number of
       domains) stops the spawning: the workers already running drain
       every task, the caller drains them when none started, and every
       spawned worker is joined, so none outlives the batch *)
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
    let workers = spawn [] (min pool.jobs n) in
    if workers = [] then worker ();
    List.iter Domain.join workers;
    Array.to_list results
  end
