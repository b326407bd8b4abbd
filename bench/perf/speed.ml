(* Machine-speed calibration. Shared hosts change speed by tens of
   percent within seconds, and a whole run can land in a slow spell.
   A fixed kernel (hashing, allocation and pointer chasing) is timed
   between the requests of a run; the geometric mean of its times over
   the reference time is the run's slowness, and the time metrics are
   divided by it — stating them in reference milliseconds, what the run
   would have taken at the reference speed. On the reference host this
   cuts the run-to-run spread of the time metrics from ~9% to ~2-3%.
   The kernel is the benchmark's own code, so no change to the program
   under test can move it; the raw times are reported next to the
   normalized ones. *)

let kernel () =
  let h = Hashtbl.create 4096 in
  let l = ref [] in
  for i = 0 to 40_000 do
    Hashtbl.replace h ((i * 7919) land 4095) i;
    if i land 7 = 0 then l := (i, string_of_int i) :: !l
  done;
  ignore (Sys.opaque_identity (Hashtbl.length h + List.length !l))

(* The kernel's time in seconds at the reference speed: its typical
   time on a 2-vCPU Xeon VM. *)
let reference_s = 0.0022

(* Kernel samples of one run; safe to add to from any thread. *)
type meter = { mu : Mutex.t; mutable logs : float list }

let meter () = { mu = Mutex.create (); logs = [] }

let probe (m : meter) : unit =
  let t0 = Unix.gettimeofday () in
  kernel ();
  let dt = Unix.gettimeofday () -. t0 in
  Mutex.protect m.mu (fun () -> m.logs <- log dt :: m.logs)

(* Geometric-mean kernel time over the reference time: above 1 the
   machine ran slow. 1 without samples. *)
let slowness (m : meter) : float =
  match Mutex.protect m.mu (fun () -> m.logs) with
  | [] -> 1.0
  | ls -> exp (List.fold_left ( +. ) 0.0 ls /. float_of_int (List.length ls)) /. reference_s
