(** Versioned, content-addressed on-disk store for characterization
    results (the persistent half of {!Engine}'s cache).

    Layout: one file per cache key under [<root>/v<N>/<md5(key)>.bin].
    Each entry is a header line

    {v ALICE-CACHE <format-version> <md5-of-payload> <payload-bytes> v}

    followed by the payload, a [Marshal] blob of [(key, value)]. The
    full key is stored and re-checked on load, so a filename collision
    can only cost a miss, never a wrong hit.

    The store never fails a flow: a missing, truncated, corrupt or
    version-mismatched entry degrades to a miss (recompute) with a
    [W0702] warning — and is {e quarantined} (moved aside into
    [<root>/quarantine/]) so the same rot is paid once, then repaired by
    the recomputation's write-back. An unwritable directory disables
    writes with a single [W0703] warning until {!enable_writes} (which
    {!gc} calls after freeing space) re-arms them. Each write goes
    through a temporary file of its own (named by pid and a per-process
    counter) and [Sys.rename], so concurrent processes, worker domains
    and threads never observe a torn entry or lose a rename.

    With a byte budget ([max_bytes]) the store is bounded: loads touch
    their entry's mtime, and when a write pushes the directory over
    budget the least-recently-used entries are evicted until it fits
    (the entry just written is never its own victim). {!gc} does the
    same on demand, plus full-store validation.

    Fault injection (sites [cache.read], [cache.write]) threads through
    both IO boundaries; see {!Alice_fault.Fault}. *)

module D = Alice_diag.Diag
module Fi = Alice_fault.Fault

let format_version = 1

type stats = {
  disk_hits : int;     (* entries served from disk *)
  disk_misses : int;   (* keys with no entry on disk *)
  stores : int;        (* entries written *)
  failures : int;      (* unreadable/corrupt entries and failed writes *)
  quarantined : int;   (* unusable entries moved aside for repair *)
  evicted : int;       (* entries removed by the byte budget or gc *)
}

type gc_stats = {
  gc_examined : int;       (* entries inspected *)
  gc_quarantined : int;    (* entries failing validation, moved aside *)
  gc_evicted : int;        (* valid entries evicted by the budget *)
  gc_freed_bytes : int;    (* bytes reclaimed (quarantine + eviction) *)
  gc_live_bytes : int;     (* bytes still stored after the pass *)
  gc_writes_reenabled : bool;  (* a W0703 write-disable was lifted *)
}

type t = {
  root : string;
  dir : string;  (* root/v<format_version>, the actual entry directory *)
  max_bytes : int option;
  faults : Fi.t;
  mu : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable failures : int;
  mutable quarantined : int;
  mutable evicted : int;
  mutable sink : (D.t -> unit) option;
  mutable write_disabled : bool;
  mutable used_bytes : int option;  (* lazy dir-size estimate, budget mode *)
}

let default_root () =
  match Sys.getenv_opt "ALICE_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> (
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some d when d <> "" -> Filename.concat d "alice"
    | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" ->
        Filename.concat (Filename.concat h ".cache") "alice"
      | _ -> Filename.concat (Filename.get_temp_dir_name ()) "alice-cache"))

let create ?root ?max_bytes ?(faults = Fi.global ()) () =
  (match max_bytes with
  | Some n when n < 0 -> invalid_arg "Disk_cache.create: negative max_bytes"
  | _ -> ());
  let root = match root with Some r -> r | None -> default_root () in
  { root;
    dir = Filename.concat root (Printf.sprintf "v%d" format_version);
    max_bytes; faults;
    mu = Mutex.create ();
    hits = 0; misses = 0; stores = 0; failures = 0; quarantined = 0;
    evicted = 0; sink = None; write_disabled = false; used_bytes = None }

let root (t : t) = t.root

let stats (t : t) : stats =
  Mutex.protect t.mu (fun () ->
      { disk_hits = t.hits; disk_misses = t.misses; stores = t.stores;
        failures = t.failures; quarantined = t.quarantined;
        evicted = t.evicted })

let set_sink (t : t) (sink : D.t -> unit) : unit =
  Mutex.protect t.mu (fun () -> t.sink <- Some sink)

let clear_sink (t : t) : unit =
  Mutex.protect t.mu (fun () -> t.sink <- None)

let writes_enabled (t : t) : bool =
  Mutex.protect t.mu (fun () -> not t.write_disabled)

(* Re-arm writes after the operator (or {!gc}) freed space; the next
   failure warns W0703 again — warn-once is per disabled episode, not
   per process. *)
let enable_writes (t : t) : unit =
  Mutex.protect t.mu (fun () -> t.write_disabled <- false)

(* Counter bumps and sink emission under the store's mutex: load/store
   run on characterization worker domains and the sink usually appends
   to a plain (unsynchronized) collector. *)
let warn (t : t) (d : D.t) : unit =
  Mutex.protect t.mu (fun () ->
      t.failures <- t.failures + 1;
      match t.sink with Some f -> f d | None -> ())

let entry_path (t : t) (key : string) : string =
  Filename.concat t.dir (Digest.to_hex (Digest.string key) ^ ".bin")

let quarantine_dir (t : t) : string = Filename.concat t.root "quarantine"

let rec mkdir_p (dir : string) : unit =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let file_size (path : string) : int =
  match Unix.stat path with
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error _ -> 0

(* Move an unusable entry aside so it cannot fail the next load too;
   the recompute's write-back then repairs the slot. Fall back to
   deletion (and then to nothing) — quarantine is best-effort hygiene,
   never a new failure mode. *)
let quarantine (t : t) (path : string) : unit =
  let dst = Filename.concat (quarantine_dir t) (Filename.basename path) in
  (try
     mkdir_p (quarantine_dir t);
     Sys.rename path dst
   with _ -> ( try Sys.remove path with Sys_error _ -> ()));
  Mutex.protect t.mu (fun () -> t.quarantined <- t.quarantined + 1)

(* Entry validation up to the payload: header shape, format version,
   payload length, payload digest. A payload that passes is the blob we
   wrote, so it is safe to [Marshal.from_string]; gc stops here, as it
   does not know the key. *)
let verified_payload (raw : string) : (string, string) result =
  match String.index_opt raw '\n' with
  | None -> Error "missing header"
  | Some nl -> (
    let header = String.sub raw 0 nl in
    let payload = String.sub raw (nl + 1) (String.length raw - nl - 1) in
    match
      Scanf.sscanf header "ALICE-CACHE %d %s %d" (fun v d n -> (v, d, n))
    with
    | exception _ -> Error "malformed header"
    | version, digest, len ->
      if version <> format_version then
        Error
          (Printf.sprintf "format version %d (this build writes %d)" version
             format_version)
      else if String.length payload <> len then
        Error
          (Printf.sprintf "truncated payload (%d of %d bytes)"
             (String.length payload) len)
      else if Digest.to_hex (Digest.string payload) <> digest then
        Error "payload checksum mismatch"
      else Ok payload)

(* the full load-time check: a verified payload, then the embedded key *)
let parse_entry (key : string) (raw : string) : ('v, string) result =
  Result.bind (verified_payload raw) (fun payload ->
      match Marshal.from_string payload 0 with
      | exception _ -> Error "undecodable payload"
      | stored_key, v ->
        if (stored_key : string) <> key then Error "key collision" else Ok v)

let load (t : t) ~(key : string) : 'v option =
  let path = entry_path t key in
  let injected_read_failure =
    match Fi.check t.faults "cache.read" with
    | Some (Fi.Delay s) -> Unix.sleepf s; false
    | Some _ -> true
    | None -> false
  in
  match if injected_read_failure then raise (Sys_error "injected read failure")
        else In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ ->
    Mutex.protect t.mu (fun () -> t.misses <- t.misses + 1);
    None
  | raw -> (
    match parse_entry key raw with
    | Ok v ->
      (* recency for LRU eviction: utimes 0 0 = touch to now *)
      (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
      Mutex.protect t.mu (fun () -> t.hits <- t.hits + 1);
      Some v
    | Error reason ->
      quarantine t path;
      warn t
        (D.warning ~code:"W0702"
           ~context:[ ("entry", path) ]
           "unusable cache entry (%s); quarantined, recomputing" reason);
      None)

(* ---------- byte budget ---------- *)

(* (path, size, mtime) of every entry, oldest first *)
let scan_entries (t : t) : (string * int * float) list =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter (fun f -> Filename.check_suffix f ".bin")
    |> List.filter_map (fun f ->
           let path = Filename.concat t.dir f in
           match Unix.stat path with
           | { Unix.st_size; st_mtime; _ } -> Some (path, st_size, st_mtime)
           | exception Unix.Unix_error _ -> None)
    |> List.sort (fun (p1, _, m1) (p2, _, m2) ->
           compare (m1, p1) (m2, p2))

let note_stored (t : t) ~(size : int) ~(replaced : int) : unit =
  Mutex.protect t.mu (fun () ->
      t.stores <- t.stores + 1;
      match t.used_bytes with
      | Some used -> t.used_bytes <- Some (used + size - replaced)
      | None -> ())

(* Evict least-recently-used entries until the directory fits [budget];
   [keep] (the entry just written) is never its own victim. Runs outside
   the mutex — eviction is idempotent and concurrent evictors only race
   to delete the same oldest files, which [Sys.remove] settles. *)
let evict_to_budget (t : t) ~(budget : int) ~(keep : string option) : int =
  let entries = scan_entries t in
  let total = List.fold_left (fun acc (_, s, _) -> acc + s) 0 entries in
  Mutex.protect t.mu (fun () -> t.used_bytes <- Some total);
  let rec go over entries freed =
    if over <= 0 then freed
    else
      match entries with
      | [] -> freed
      | (path, size, _) :: rest ->
        if keep = Some path then go over rest freed
        else begin
          (match Sys.remove path with
          | () ->
            Mutex.protect t.mu (fun () ->
                t.evicted <- t.evicted + 1;
                t.used_bytes <-
                  Option.map (fun u -> max 0 (u - size)) t.used_bytes)
          | exception Sys_error _ -> ());
          go (over - size) rest (freed + size)
        end
  in
  go (total - budget) entries 0

let ensure_used_bytes (t : t) : int =
  match Mutex.protect t.mu (fun () -> t.used_bytes) with
  | Some used -> used
  | None ->
    let total =
      List.fold_left (fun acc (_, s, _) -> acc + s) 0 (scan_entries t)
    in
    Mutex.protect t.mu (fun () ->
        match t.used_bytes with
        | Some used -> used  (* another thread scanned first *)
        | None -> t.used_bytes <- Some total; total)

(* Numbers this process's temp files: with the pid, every write gets a
   temp file of its own, whichever domain, thread or process makes it. *)
let tmp_seq = Atomic.make 0

let store (t : t) ~(key : string) (v : 'a) : unit =
  if writes_enabled t then begin
    let path = entry_path t key in
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
        (Atomic.fetch_and_add tmp_seq 1)
    in
    let injected = Fi.check t.faults "cache.write" in
    (match injected with Some (Fi.Delay s) -> Unix.sleepf s | _ -> ());
    match
      (match injected with
      | Some Fi.Fail | Some Fi.Kill ->
        raise (Sys_error "injected write failure")
      | Some Fi.Enospc ->
        raise (Unix.Unix_error (Unix.ENOSPC, "write", path))
      | Some (Fi.Eintr | Fi.Eagain) ->
        raise (Sys_error "injected transient write failure")
      | Some Fi.Torn | Some (Fi.Delay _) | None -> ());
      mkdir_p t.dir;
      let payload = Marshal.to_string (key, v) [] in
      let header =
        Printf.sprintf "ALICE-CACHE %d %s %d\n" format_version
          (Digest.to_hex (Digest.string payload))
          (String.length payload)
      in
      (* a torn write persists only half the payload — the simulated
         power cut lands after the rename, so load sees a truncated
         entry with a well-formed header *)
      let payload =
        match injected with
        | Some Fi.Torn -> String.sub payload 0 (String.length payload / 2)
        | _ -> payload
      in
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc header;
          output_string oc payload);
      let replaced = file_size path in
      Sys.rename tmp path;
      (replaced, String.length header + String.length payload)
    with
    | replaced, size ->
      note_stored t ~size ~replaced;
      (match t.max_bytes with
      | None -> ()
      | Some budget ->
        if ensure_used_bytes t > budget then
          ignore (evict_to_budget t ~budget ~keep:(Some path)))
    | exception e ->
      (* one warning, then stop trying: an unwritable cache directory
         must not warn once per characterization. [enable_writes] (and
         [gc], once space is freed) re-arms. A half-written temp file
         is removed, as no later write reuses its name. *)
      (try Sys.remove tmp with Sys_error _ -> ());
      Mutex.protect t.mu (fun () -> t.write_disabled <- true);
      warn t
        (D.warning ~code:"W0703"
           ~context:[ ("dir", t.dir) ]
           "cannot write cache entry (%s); caching disabled until freed"
           (Printexc.to_string e))
  end

(* ---------- gc: validate, quarantine, evict, re-arm ---------- *)

let gc ?max_bytes (t : t) : gc_stats =
  let entries = scan_entries t in
  let examined = List.length entries in
  (* validation pass: quarantine anything that no longer checksums *)
  let quarantined, bad_bytes =
    List.fold_left
      (fun (n, bytes) (path, size, _) ->
        let ok =
          match In_channel.with_open_bin path In_channel.input_all with
          | raw -> Result.is_ok (verified_payload raw)
          | exception Sys_error _ -> false
        in
        if ok then (n, bytes)
        else begin
          quarantine t path;
          (n + 1, bytes + size)
        end)
      (0, 0) entries
  in
  (* eviction pass against the requested (or configured) budget *)
  let budget = match max_bytes with Some b -> Some b | None -> t.max_bytes in
  let evicted_bytes, evicted_count =
    match budget with
    | None ->
      (* still refresh the size estimate *)
      let total =
        List.fold_left (fun acc (_, s, _) -> acc + s) 0 (scan_entries t)
      in
      Mutex.protect t.mu (fun () -> t.used_bytes <- Some total);
      (0, 0)
    | Some budget ->
      let before = Mutex.protect t.mu (fun () -> t.evicted) in
      let freed = evict_to_budget t ~budget ~keep:None in
      let after = Mutex.protect t.mu (fun () -> t.evicted) in
      (freed, after - before)
  in
  let live =
    Mutex.protect t.mu (fun () -> Option.value t.used_bytes ~default:0)
  in
  let reenabled =
    Mutex.protect t.mu (fun () ->
        let was = t.write_disabled in
        t.write_disabled <- false;
        was)
  in
  { gc_examined = examined; gc_quarantined = quarantined;
    gc_evicted = evicted_count; gc_freed_bytes = bad_bytes + evicted_bytes;
    gc_live_bytes = live; gc_writes_reenabled = reenabled }
