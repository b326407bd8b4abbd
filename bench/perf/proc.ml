(* Process accounting from procfs (Linux): CPU time and peak resident
   set of this process or of a child. *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* User + system CPU seconds of this process, all threads included. *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* procfs reports CPU time in clock ticks of USER_HZ, 100 on Linux. *)
let ticks_per_s = 100.0

(* User + system CPU seconds of process [pid] so far. *)
let cpu_s (pid : int) : float =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> nan
  | Some s -> (
    (* fields after the parenthesized command name, which may hold
       spaces; utime and stime are the 14th and 15th fields overall *)
    let close = String.rindex s ')' in
    let rest = String.sub s (close + 2) (String.length s - close - 2) in
    match String.split_on_char ' ' rest with
    | fields when List.length fields > 12 ->
      (float_of_string (List.nth fields 11) +. float_of_string (List.nth fields 12))
      /. ticks_per_s
    | _ -> nan)

(* Peak resident set size (VmHWM) of [pid] in MB. *)
let peak_rss_mb (pid : int) : float =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> nan
  | Some s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> acc)
      nan (String.split_on_char '\n' s)

(* [rm_rf dir]: remove a scratch tree the benchmark created. *)
let rec rm_rf (path : string) : unit =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p (path : string) : unit =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
