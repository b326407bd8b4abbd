(* The ALICE performance benchmark.

     perf.exe run [--seed N] [--seconds S] [--scale full|smoke]
                  [--workload W]... [--trace DIR] [--out FILE]
         every workload (or the named ones), each in its own child
         process; prints the metrics, writes one JSON result, exits 1 on
         any failed check
     perf.exe repeat --runs N [--seed N] [--seconds S] [--out FILE]
         the whole benchmark N times; each metric's median and spread
     perf.exe compare BASE.json NEW.json [--benchmark BENCHMARK.json]
         regressions, improvements and counter changes between results
     perf.exe bench --workload W --seed N --seconds S --trace 0|1
         one workload in process; the last stdout line is the JSON
         summary BENCHMARK.json describes
     perf.exe child W [run options]
         one workload in process (what [run] spawns)
     perf.exe metrics
         every metric: unit, direction, layer, what it moves *)

module J = Alice_config.Json_lite
module M = Alice_perf.Metrics
module W = Alice_perf.Workloads
module I = Alice_perf.Inputs
module Stats = Alice_perf.Stats

let usage () =
  prerr_endline
    "usage: perf.exe run|repeat|compare|bench|child|metrics ... (see bench/perf/README.md)";
  exit 2

type args = {
  mutable seed : int;
  mutable seconds : float;
  mutable scale : I.scale;
  mutable workloads : string list;
  mutable trace : string option;
  mutable out : string option;
  mutable runs : int;
  mutable benchmark : string;
  mutable positional : string list;
}

let parse argv =
  let a =
    { seed = 1; seconds = 10.0; scale = I.Full; workloads = []; trace = None;
      out = None; runs = 5; benchmark = "BENCHMARK.json"; positional = [] }
  in
  let rec go = function
    | [] -> ()
    | "--seed" :: v :: rest -> a.seed <- int_of_string v; go rest
    | "--seconds" :: v :: rest -> a.seconds <- float_of_string v; go rest
    | "--scale" :: "full" :: rest -> a.scale <- I.Full; go rest
    | "--scale" :: "smoke" :: rest -> a.scale <- I.Smoke; go rest
    | "--workload" :: v :: rest -> a.workloads <- a.workloads @ [ v ]; go rest
    | "--trace" :: v :: rest -> a.trace <- Some v; go rest
    | "--out" :: v :: rest -> a.out <- Some v; go rest
    | "--runs" :: v :: rest -> a.runs <- int_of_string v; go rest
    | "--benchmark" :: v :: rest -> a.benchmark <- v; go rest
    | v :: rest when String.length v > 0 && v.[0] <> '-' ->
      a.positional <- a.positional @ [ v ]; go rest
    | v :: _ -> prerr_endline ("unknown argument " ^ v); usage ()
  in
  go argv;
  List.iter
    (fun w -> if not (List.mem_assoc w W.all) then (prerr_endline ("unknown workload " ^ w); usage ()))
    a.workloads;
  a

let opts (a : args) ~trace_dir : W.opts =
  { W.scale = a.scale; seed = a.seed; seconds = a.seconds; trace_dir }

let run_workload name o =
  match List.assoc_opt name W.all with
  | Some f -> f o
  | None -> invalid_arg name

let print_values header vs =
  List.iter
    (fun (name, v) -> Printf.printf "  %-14s %-26s %14.4f %s\n" header name v (M.unit_of name))
    vs

(* Spawn [perf.exe child NAME ...] and read its result (last line). *)
let spawn_child (a : args) name : (M.result, string) result =
  let args =
    [ Sys.executable_name; "child"; name; "--seed"; string_of_int a.seed;
      "--seconds"; Printf.sprintf "%g" a.seconds; "--scale"; I.scale_name a.scale ]
    @ match a.trace with Some d -> [ "--trace"; d ] | None -> []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  let last =
    String.split_on_char '\n' out |> List.filter (fun l -> String.trim l <> "") |> List.rev
  in
  match last with
  | line :: _ -> (
    match M.of_json (J.parse line) with
    | r -> Ok r
    | exception e -> Error (Printf.sprintf "%s: unreadable result (%s)" name (Printexc.to_string e)))
  | [] ->
    Error
      (Printf.sprintf "%s: child exited without a result (%s)" name
         (match status with
         | Unix.WEXITED c -> "exit " ^ string_of_int c
         | Unix.WSIGNALED s -> "signal " ^ string_of_int s
         | Unix.WSTOPPED s -> "stopped " ^ string_of_int s))

(* One pass over the selected workloads; returns the results and
   whether every check held. *)
let run_once (a : args) : M.result list * bool =
  let names = if a.workloads = [] then List.map fst W.all else a.workloads in
  List.fold_left
    (fun (acc, ok) name ->
      match spawn_child a name with
      | Error e ->
        Printf.printf "%s: FAILED: %s\n%!" name e;
        (acc, false)
      | Ok r ->
        Printf.printf "%s (seed %d, %d decks, %d requests, %d failed)%s\n" name r.M.seed
          r.M.decks r.M.attempted r.M.failed (if r.M.correct then "" else "  CHECK FAILED");
        print_values "end-to-end" r.M.metrics;
        print_values "counter" r.M.counters;
        print_values "layer" r.M.layers;
        List.iter (fun e -> Printf.printf "  error: %s\n" e) r.M.errors;
        flush stdout;
        (acc @ [ r ], ok && r.M.correct))
    ([], true) names

let results_json (a : args) (runs : M.result list list) =
  J.Obj
    [ ("schema", J.String "alice-perf/1");
      ("seconds", J.Float a.seconds);
      ("scale", J.String (I.scale_name a.scale));
      ( "runs",
        J.List
          (List.map
             (fun rs ->
               J.Obj
                 [ ("seed", J.Int a.seed);
                   ("workloads", J.List (List.map M.to_json rs)) ])
             runs) ) ]

let write_results (a : args) ~default runs =
  let path = Option.value a.out ~default in
  Alice_perf.Proc.mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (J.to_string (results_json a runs));
      output_char oc '\n');
  Printf.printf "results written to %s\n" path

let cmd_run (a : args) =
  let t0 = Unix.gettimeofday () in
  let rs, ok = run_once a in
  write_results a ~default:(Printf.sprintf ".perf/run-seed%d.json" a.seed) [ rs ];
  Printf.printf "benchmark %s in %.1f s\n" (if ok then "passed" else "FAILED")
    (Unix.gettimeofday () -. t0);
  exit (if ok then 0 else 1)

let cmd_repeat (a : args) =
  let runs = List.init a.runs (fun i ->
      Printf.printf "=== run %d of %d ===\n%!" (i + 1) a.runs;
      run_once a)
  in
  let results = List.map fst runs in
  write_results a ~default:(Printf.sprintf ".perf/repeat-seed%d.json" a.seed) results;
  Printf.printf "\n%-16s %-24s %12s %12s %12s %8s\n" "workload" "metric" "median" "q1" "q3" "IQR/med";
  let all = List.concat results in
  List.iter
    (fun (w, _) ->
      List.iter
        (fun (d : M.def) ->
          let vs =
            List.filter_map
              (fun (r : M.result) ->
                if r.M.workload = w then List.assoc_opt d.M.name r.M.metrics else None)
              all
          in
          if vs <> [] then
            let q1, m, q3 = Stats.quartiles vs in
            Printf.printf "%-16s %-24s %12.4f %12.4f %12.4f %7.2f%%\n" w d.M.name m q1 q3
              (if m = 0.0 then 0.0 else 100.0 *. (q3 -. q1) /. Float.abs m))
        M.end_to_end)
    W.all;
  exit (if List.for_all snd runs then 0 else 1)

let cmd_child (a : args) =
  match a.positional with
  | [ name ] ->
    let r = run_workload name (opts a ~trace_dir:a.trace) in
    print_endline (J.to_string (M.to_json r));
    exit (if r.M.correct then 0 else 1)
  | _ -> usage ()

(* The single-workload entry point: exactly the metrics BENCHMARK.json
   names for the mode, as the last line of stdout. *)
let cmd_bench (argv : string list) =
  let trace = ref false in
  let rest =
    let rec strip = function
      | "--trace" :: "1" :: r -> trace := true; strip r
      | "--trace" :: "0" :: r -> strip r
      | x :: r -> x :: strip r
      | [] -> []
    in
    strip argv
  in
  let a = parse rest in
  let name = match a.workloads with [ w ] -> w | _ -> usage () in
  let doc = J.parse (In_channel.with_open_bin a.benchmark In_channel.input_all) in
  let wanted =
    match J.find doc (if !trace then "per_layer" else "end_to_end") with
    | Some (J.List ms) -> List.map (fun m -> (J.get_string m "name", J.get_string m "unit")) ms
    | _ -> failwith "BENCHMARK.json lists no metrics"
  in
  let r =
    run_workload name (opts a ~trace_dir:(if !trace then Some ".perf/trace" else None))
  in
  let values = if !trace then r.M.layers else r.M.metrics in
  let picked = List.map (fun (n, u) -> (n, u, List.assoc_opt n values)) wanted in
  let complete =
    List.for_all (function _, _, Some v -> Float.is_finite v | _, _, None -> false) picked
  in
  List.iter (fun e -> prerr_endline ("error: " ^ e)) r.M.errors;
  List.iter
    (fun (n, u, v) ->
      Printf.eprintf "%-26s %14.4f %s\n" n (Option.value v ~default:nan) u)
    picked;
  let correct = r.M.correct && complete in
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool correct);
            ("attempted", J.Int r.M.attempted);
            ("failed", J.Int r.M.failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (n, u, v) ->
                     ( n,
                       J.Obj
                         [ ("value", J.Float (Option.value v ~default:nan));
                           ("unit", J.String u) ] ))
                   picked) ) ]));
  exit (if correct then 0 else 1)

(* Every metric with its unit, direction, layer and what it reports or
   moves: the part of the metric table BENCHMARK.json has no room for. *)
let cmd_metrics () =
  List.iter
    (fun (d : M.def) ->
      Printf.printf "%-26s %-10s %-7s %-13s %s\n" d.M.name d.M.unit_
        (match d.M.better with M.Lower -> "lower" | M.Higher -> "higher")
        (if d.M.layer = "" then "end-to-end" else d.M.layer)
        d.M.note)
    M.all

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "metrics" ] -> cmd_metrics ()
  | "run" :: rest -> cmd_run (parse rest)
  | "repeat" :: rest -> cmd_repeat (parse rest)
  | "child" :: rest -> cmd_child (parse rest)
  | "bench" :: rest -> cmd_bench rest
  | "compare" :: rest -> (
    let a = parse rest in
    match a.positional with
    | [ base; nw ] -> exit (Alice_perf.Compare.run ~benchmark:a.benchmark base nw)
    | _ -> usage ())
  | _ -> usage ()
