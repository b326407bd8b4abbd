(** Versioned, content-addressed on-disk store: the persistent half of
    {!Engine}'s cache, holding its characterizations, attack verdicts
    and sweep checkpoints side by side.

    Layout: a log-structured hash table (Sheehy & Smith, "Bitcask",
    2010). Each handle appends to a segment file of its own,
    [<root>/v<N>/<pid>-<n>.log], opened at its first store. A record is
    a header line

    {v ALICE-CACHE <format-version> <md5-of-key> <md5-of-payload> <payload-bytes> v}

    followed by the payload, a [Marshal] blob of [(key, value)]. An
    in-memory index maps each key digest to its record: the handle's
    own appends enter it as they are written, and a miss rescans only
    what other segments gained since the last look, reading each header
    (at most [header_max] bytes) and seeking past its payload. The full
    key is stored and re-checked on load, so a digest collision can only
    cost a miss, never a wrong hit.

    The store never fails a flow: a truncated, corrupt or
    version-mismatched record degrades to a miss (recompute) with a
    [W0702] warning, and is {e quarantined}: its bytes are copied into
    [<root>/quarantine/] and its magic is overwritten in place, so no
    handle indexes it again and the same rot is paid once, then repaired
    by the recomputation's write-back. A record whose declared length
    runs past its segment's end is an incomplete tail (a write in
    progress, or a writer killed mid-write): it is neither indexed nor
    reported, and the next scan resumes there. A record that another
    handle marked dead after this one indexed it is a silent miss. An
    unwritable directory disables writes with a single [W0703] warning
    until {!gc} re-arms them.

    With a byte budget ([max_bytes]) the store is bounded: loads and
    stores stamp their record's index entry, and when the segments
    outgrow the budget the handle compacts them into one fresh segment
    holding the most recently used records that fit in half the budget
    (the record just written is never its own victim), so the copying
    is spread over the stores that refill the other half. {!gc} compacts
    to the whole budget on demand, plus full-store validation.

    Fault injection (sites [cache.read], [cache.write]) threads through
    both IO boundaries; see {!Alice_fault.Fault}. *)

module D = Alice_diag.Diag
module Fi = Alice_fault.Fault

let format_version = 2

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
  gc_freed_bytes : int;    (* bytes reclaimed *)
  gc_live_bytes : int;     (* bytes still stored after the pass *)
  gc_writes_reenabled : bool;  (* a W0703 write-disable was lifted *)
}

(* A segment file, by its name in the store directory. *)
type segment = {
  name : string;
  mutable size : int;     (* its bytes at the last look *)
  mutable scanned : int;  (* the whole records before this are indexed *)
}

(* One record: [len] bytes at [off] in [seg], header included. *)
type slot = { seg : segment; off : int; len : int; mutable stamp : int }

(* The segment this handle appends to, opened by process [pid]. *)
type writer = { fd : Unix.file_descr; pid : int; own : segment }

type t = {
  root : string;
  dir : string;  (* root/v<format_version>, the segment directory *)
  max_bytes : int option;
  faults : Fi.t;
  mu : Mutex.t;  (* guards the tables and every mutable field *)
  index : (string, slot) Hashtbl.t;  (* md5 hex of a key -> its record *)
  segments : (string, segment) Hashtbl.t;  (* every segment, by name *)
  mutable writer : writer option;
  mutable clock : int;  (* last-use stamps: the LRU order *)
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable failures : int;
  mutable quarantined : int;
  mutable evicted : int;
  mutable sink : (D.t -> unit) option;
  mutable write_disabled : bool;
}

let live_magic = "ALICE-CACHE"

(* overwrites [live_magic] of a quarantined record; same length, so the
   header still gives the record's length to a scan that skips it *)
let dead_magic = "ALICE-DEAD!"

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

let check_budget (fn : string) : int option -> unit = function
  | Some n when n < 0 -> invalid_arg (fn ^ ": negative max_bytes")
  | _ -> ()

let close_fd (fd : Unix.file_descr) : unit =
  try Unix.close fd with Unix.Unix_error _ -> ()

let close_writer (w : writer) : unit = close_fd w.fd

let drop_writer (t : t) : unit =
  Option.iter close_writer t.writer;
  t.writer <- None

let create ?root ?max_bytes ?(faults = Fi.global ()) () =
  check_budget "Disk_cache.create" max_bytes;
  let root = match root with Some r -> r | None -> default_root () in
  (* an empty root would put the store under the working directory *)
  if root = "" then invalid_arg "Disk_cache.create: empty cache directory";
  let t =
    { root;
      dir = Filename.concat root (Printf.sprintf "v%d" format_version);
      max_bytes; faults;
      mu = Mutex.create ();
      index = Hashtbl.create 256; segments = Hashtbl.create 8;
      writer = None; clock = 0;
      hits = 0; misses = 0; stores = 0; failures = 0; quarantined = 0;
      evicted = 0; sink = None; write_disabled = false }
  in
  (* an engine per request must not leak one descriptor each *)
  Gc.finalise drop_writer t;
  t

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

(* Counter bumps and sink emission under the store's mutex: load/store
   run on characterization worker domains and the sink usually appends
   to a plain (unsynchronized) collector. *)
let warn (t : t) (d : D.t) : unit =
  Mutex.protect t.mu (fun () ->
      t.failures <- t.failures + 1;
      match t.sink with Some f -> f d | None -> ())

let quarantine_dir (t : t) : string = Filename.concat t.root "quarantine"

let rec mkdir_p (dir : string) : unit =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let key_digest (key : string) : string = Digest.to_hex (Digest.string key)

let segment_path (t : t) (seg : segment) : string = Filename.concat t.dir seg.name

let open_read (path : string) : Unix.file_descr =
  Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0

(* Up to [n] bytes at [pos] of [fd], unbuffered: fewer at the end of the
   file or on a read error. *)
let pread (fd : Unix.file_descr) (pos : int) (n : int) : string =
  let buf = Bytes.create n in
  let rec fill got =
    if got = n then got
    else
      match Unix.read fd buf got (n - got) with
      | 0 -> got
      | k -> fill (got + k)
      | exception Unix.Unix_error _ -> got
  in
  match Unix.lseek fd pos Unix.SEEK_SET with
  | _ -> Bytes.sub_string buf 0 (fill 0)
  | exception Unix.Unix_error _ -> ""

(* [(pid, n)] of a segment name [<pid>-<n>.log]; other files are not
   segments *)
let segment_id (name : string) : (int * int) option =
  match Scanf.sscanf name "%u-%u.log%!" (fun pid n -> (pid, n)) with
  | id -> Some id
  | exception _ -> None

let tick (t : t) : int =
  t.clock <- t.clock + 1;
  t.clock

(* ---------- the index: scanning segments ---------- *)

(* A header is one short line; more bytes than this without a newline
   are not one. *)
let header_max = 128

(* The record at [pos] of a segment of [size] bytes, from one read of at
   most [header_max] bytes: whether it is live, its key digest and its
   length, header included. [None] when the bytes there hold no whole
   record. *)
let record_at (fd : Unix.file_descr) (pos : int) (size : int) :
    (bool * string * int) option =
  let n = min header_max (size - pos) in
  if n <= 0 then None
  else
    let s = pread fd pos n in
    match String.index_opt s '\n' with
    | None -> None
    | Some nl -> (
      match String.split_on_char ' ' (String.sub s 0 nl) with
      | [ magic; _version; kd; _payload_digest; bytes ]
        when magic = live_magic || magic = dead_magic -> (
        match int_of_string_opt bytes with
        | Some b when b >= 0 && pos + nl + 1 + b <= size ->
          Some (magic = live_magic, kd, nl + 1 + b)
        | _ -> None)
      | _ -> None)

(* Index the whole records of [seg] past [seg.scanned], reading each
   header and seeking past its payload. An incomplete tail, or bytes
   that are no header, end the scan unreported, and the next one
   resumes there. A key already indexed keeps its record: with segments
   scanned in name order, every handle resolves a duplicate alike.
   Under [t.mu]. *)
let scan (t : t) (seg : segment) : unit =
  match open_read (segment_path t seg) with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    let rec go pos =
      match record_at fd pos seg.size with
      | None -> pos
      | Some (live, kd, len) ->
        if live && not (Hashtbl.mem t.index kd) then
          Hashtbl.replace t.index kd { seg; off = pos; len; stamp = tick t };
        go (pos + len)
    in
    seg.scanned <-
      Fun.protect ~finally:(fun () -> close_fd fd) (fun () -> go seg.scanned)

(* Bring the index up to date with the directory: forget the segments
   that are gone (another handle's compaction deleted them), and index
   what each segment gained since the last look. The handle's own
   appends are indexed as they are written, so its own segment shows no
   gain. Under [t.mu]. *)
let look (t : t) : unit =
  let present = Hashtbl.create 16 in
  (match Sys.readdir t.dir with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun name ->
        Option.iter (Hashtbl.replace present name) (segment_id name))
      names);
  let gone =
    Hashtbl.fold
      (fun name _ acc -> if Hashtbl.mem present name then acc else name :: acc)
      t.segments []
  in
  if gone <> [] then begin
    List.iter (Hashtbl.remove t.segments) gone;
    Hashtbl.filter_map_inplace
      (fun _ s -> if Hashtbl.mem present s.seg.name then Some s else None)
      t.index
  end;
  Hashtbl.fold (fun name id acc -> (id, name) :: acc) present []
  |> List.sort compare
  |> List.iter (fun (_, name) ->
         let seg =
           match Hashtbl.find_opt t.segments name with
           | Some seg -> seg
           | None ->
             let seg = { name; size = 0; scanned = 0 } in
             Hashtbl.replace t.segments name seg;
             seg
         in
         match Unix.stat (segment_path t seg) with
         | exception Unix.Unix_error _ -> ()
         | { Unix.st_size; _ } ->
           if st_size <> seg.size then begin
             seg.size <- st_size;
             scan t seg
           end)

(* [look], reading every segment's headers again from the start: a key
   whose indexed record was dropped is then found at a live record that
   a scan passed over while the index held the dropped one. Under
   [t.mu]. *)
let rescan (t : t) : unit =
  Hashtbl.iter
    (fun _ seg ->
      seg.size <- 0;
      seg.scanned <- 0)
    t.segments;
  look t

(* The record indexed for [kd], else the one a look finds. Under
   [t.mu]. *)
let find (t : t) (kd : string) : slot option =
  match Hashtbl.find_opt t.index kd with
  | Some _ as s -> s
  | None ->
    look t;
    Hashtbl.find_opt t.index kd

(* Drop [kd]'s index entry if it is still [s]. Under [t.mu]. *)
let forget (t : t) (kd : string) (s : slot) : unit =
  match Hashtbl.find_opt t.index kd with
  | Some s' when s' == s -> Hashtbl.remove t.index kd
  | _ -> ()

(* bytes in every segment the handle knows of *)
let segment_bytes (t : t) : int =
  Hashtbl.fold (fun _ seg acc -> acc + seg.size) t.segments 0

let locate (t : t) ~(key : string) : (string * int * int) option =
  Mutex.protect t.mu (fun () ->
      Option.map
        (fun s -> (segment_path t s.seg, s.off, s.len))
        (find t (key_digest key)))

(* ---------- load ---------- *)

(* The record's bytes: exactly its indexed length, fewer at a short
   read; [None] when its segment cannot be opened. *)
let read_record (t : t) (s : slot) : string option =
  match open_read (segment_path t s.seg) with
  | exception Unix.Unix_error _ -> None
  | fd ->
    Fun.protect ~finally:(fun () -> close_fd fd) (fun () ->
        Some (pread fd s.off s.len))

(* a record another handle quarantined: no entry, and no new fault *)
let is_dead (raw : string) : bool = String.starts_with ~prefix:dead_magic raw

(* Set a bad record aside: copy its bytes into quarantine, drop it from
   the index and overwrite its magic in place, so that no handle indexes
   it again and every later load finds the recompute's write-back.
   Best-effort hygiene, never a new failure mode. *)
let quarantine (t : t) (kd : string) (s : slot) (raw : string) : unit =
  (try
     mkdir_p (quarantine_dir t);
     Out_channel.with_open_bin
       (Filename.concat (quarantine_dir t) (kd ^ ".bin"))
       (fun oc -> Out_channel.output_string oc raw)
   with Sys_error _ -> ());
  (try
     let flags = [ Unix.O_WRONLY; Unix.O_CLOEXEC ] in
     let fd = Unix.openfile (segment_path t s.seg) flags 0 in
     Fun.protect ~finally:(fun () -> close_fd fd) (fun () ->
         ignore (Unix.lseek fd s.off Unix.SEEK_SET);
         ignore
           (Unix.write_substring fd dead_magic 0
              (min (String.length dead_magic) (String.length raw))))
   with Unix.Unix_error _ -> ());
  Mutex.protect t.mu (fun () ->
      forget t kd s;
      t.quarantined <- t.quarantined + 1)

(* Record validation up to the payload: header shape, format version,
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
      Scanf.sscanf header "ALICE-CACHE %d %s %s %d" (fun v _ d n -> (v, d, n))
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
  let injected_read_failure =
    match Fi.check t.faults "cache.read" with
    | Some (Fi.Delay s) -> Unix.sleepf s; false
    | Some _ -> true
    | None -> false
  in
  let miss () =
    Mutex.protect t.mu (fun () -> t.misses <- t.misses + 1);
    None
  in
  let kd = key_digest key in
  let rec attempt ~retried =
    match Mutex.protect t.mu (fun () -> find t kd) with
    | None -> miss ()
    | Some s -> (
      (* the indexed record went stale after this handle indexed it:
         bring the index up to date once, else miss *)
      let again resync =
        if retried then miss ()
        else begin
          Mutex.protect t.mu resync;
          attempt ~retried:true
        end
      in
      match read_record t s with
      | None ->
        (* its segment went to another handle's compaction *)
        again (fun () -> look t)
      | Some raw when is_dead raw ->
        (* another handle quarantined it; the write-back may sit in a
           segment this handle has scanned already *)
        again (fun () ->
            forget t kd s;
            rescan t)
      | Some raw -> (
        match parse_entry key raw with
        | Ok v ->
          Mutex.protect t.mu (fun () ->
              s.stamp <- tick t;
              t.hits <- t.hits + 1);
          Some v
        | Error reason ->
          quarantine t kd s raw;
          warn t
            (D.warning ~code:"W0702"
               ~context:
                 [ ("entry", Printf.sprintf "%s@%d" (segment_path t s.seg) s.off) ]
               "unusable cache entry (%s); quarantined, recomputing" reason);
          None))
  in
  if injected_read_failure then miss () else attempt ~retried:false

(* ---------- store ---------- *)

(* The last segment number this process took. *)
let segment_seq = Atomic.make 0

(* The [n] of a new segment [<pid>-<n>.log]: above the last one this
   process took, and no less than the time in microseconds. So with
   the pid, every handle and every compaction appends to a segment of
   its own, and a name is never reused, not even by a later process
   with a recycled pid after a compaction deleted an earlier process's
   segment: a handle that indexed the deleted file must not read a new
   one through its name. *)
let rec next_seq () : int =
  let last = Atomic.get segment_seq in
  let n = max (last + 1) (int_of_float (Unix.gettimeofday () *. 1e6)) in
  if Atomic.compare_and_set segment_seq last n then n else next_seq ()

(* A fresh, empty segment of this process, registered and open for
   appends. [O_EXCL] passes over a name that exists already: its tail
   may be incomplete, and a record appended after it would be
   unreadable. Under [t.mu]. *)
let rec open_segment (t : t) : writer =
  mkdir_p t.dir;
  let pid = Unix.getpid () in
  let name = Printf.sprintf "%d-%d.log" pid (next_seq ()) in
  match
    Unix.openfile (Filename.concat t.dir name)
      [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT; Unix.O_EXCL; Unix.O_CLOEXEC ]
      0o644
  with
  | fd ->
    let own = { name; size = 0; scanned = 0 } in
    Hashtbl.replace t.segments name own;
    { fd; pid; own }
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> open_segment t

(* The segment to append to, and its size: the offset of the next
   record. A forked child, or a handle whose segment another handle's
   compaction deleted ([st_nlink = 0]), starts a fresh one. Under
   [t.mu]. *)
let rec append_target (t : t) : writer * int =
  match t.writer with
  | None ->
    let w = open_segment t in
    t.writer <- Some w;
    (w, 0)
  | Some w when w.pid <> Unix.getpid () ->
    drop_writer t;
    append_target t
  | Some w ->
    let st = Unix.fstat w.fd in
    if st.Unix.st_nlink > 0 then (w, st.Unix.st_size)
    else begin
      drop_writer t;
      append_target t
    end

(* One write of a whole record, indexed at once. Under [t.mu]. *)
let append (t : t) (kd : string) (record : string) : unit =
  let w, off = append_target t in
  let len = String.length record in
  ignore (Unix.write_substring w.fd record 0 len);
  w.own.size <- off + len;
  w.own.scanned <- off + len;
  Hashtbl.replace t.index kd { seg = w.own; off; len; stamp = tick t }

(* A record: its header, then the payload. A torn record keeps the
   header of its whole payload and zeroes the payload's second half, as
   a power cut mid-write would: it looks stored, fails its checksum on
   the next load, and the records after it stay readable. *)
let encode (kd : string) ~(torn : bool) (payload : string) : string =
  let n = String.length payload in
  let header =
    Printf.sprintf "%s %d %s %s %d\n" live_magic format_version kd
      (Digest.to_hex (Digest.string payload)) n
  in
  let h = String.length header in
  let b = Bytes.create (h + n) in
  Bytes.blit_string header 0 b 0 h;
  Bytes.blit_string payload 0 b h n;
  if torn then Bytes.fill b (h + (n / 2)) (n - (n / 2)) '\000';
  Bytes.unsafe_to_string b

(* Copy [records] into a fresh segment, in order: its writer and the
   records' new slots. A record that cannot be read is left out. A
   failed write removes the fresh segment and raises. Under [t.mu]. *)
let copy_out (t : t) (records : (string * slot) list) :
    writer * (string * slot) list =
  let w = open_segment t in
  let copy (pos, moved) (kd, s) =
    match read_record t s with
    | Some raw when String.length raw = s.len ->
      ignore (Unix.write_substring w.fd raw 0 s.len);
      (pos + s.len, (kd, { s with seg = w.own; off = pos }) :: moved)
    | _ -> (pos, moved)
  in
  match List.fold_left copy (0, []) records with
  | size, moved ->
    w.own.size <- size;
    w.own.scanned <- size;
    (w, moved)
  | exception e ->
    close_writer w;
    (try Sys.remove (segment_path t w.own) with Sys_error _ -> ());
    Hashtbl.remove t.segments w.own.name;
    raise e

(* Rewrite the store as one fresh segment holding the live records the
   budget admits: [keep] first, then the most recently used while they
   fit. Dead, superseded and incomplete records go with the old
   segments; the live records left out count as evicted. The fresh
   segment holds its records oldest first, so a later handle's scan
   reads back the LRU order, and a store of many segments becomes one.
   Nothing happens to one segment that holds only what it keeps.
   Returns the number evicted. Under [t.mu], after [look]. *)
let compact (t : t) ~(budget : int option) ~(keep : string option) : int =
  let recent_first =
    Hashtbl.fold (fun kd s acc -> (kd, s) :: acc) t.index []
    |> List.sort (fun (ka, a) (kb, b) ->
           compare (Some kb = keep, b.stamp) (Some ka = keep, a.stamp))
  in
  let kept, evicted =
    match budget with
    | None -> (recent_first, [])
    | Some budget ->
      let rec take room = function
        | ((kd, s) as r) :: rest when s.len <= room || Some kd = keep ->
          let kept, evicted = take (room - s.len) rest in
          (r :: kept, evicted)
        | rest -> ([], rest)
      in
      take budget recent_first
  in
  let kept_bytes = List.fold_left (fun acc (_, s) -> acc + s.len) 0 kept in
  if evicted = [] && kept_bytes = segment_bytes t
     && Hashtbl.length t.segments <= 1
  then 0
  else
    let old = Hashtbl.fold (fun _ seg acc -> seg :: acc) t.segments [] in
    match
      if kept = [] then (None, [])
      else
        let w, moved = copy_out t (List.rev kept) in
        (Some w, moved)
    with
    | exception Unix.Unix_error _ -> 0  (* out of space: keep the old segments *)
    | fresh, moved ->
      drop_writer t;
      List.iter
        (fun seg ->
          (try Sys.remove (segment_path t seg) with Sys_error _ -> ());
          Hashtbl.remove t.segments seg.name)
        old;
      t.writer <- fresh;
      Hashtbl.reset t.index;
      List.iter (fun (kd, s) -> Hashtbl.replace t.index kd s) moved;
      t.evicted <- t.evicted + List.length evicted;
      List.length evicted

let store (t : t) ~(key : string) (v : 'a) : unit =
  if writes_enabled t then begin
    let injected = Fi.check t.faults "cache.write" in
    (match injected with Some (Fi.Delay s) -> Unix.sleepf s | _ -> ());
    let kd = key_digest key in
    match
      (match injected with
      | Some Fi.Fail | Some Fi.Kill ->
        raise (Sys_error "injected write failure")
      | Some Fi.Enospc -> raise (Unix.Unix_error (Unix.ENOSPC, "write", t.dir))
      | Some (Fi.Eintr | Fi.Eagain) ->
        raise (Sys_error "injected transient write failure")
      | Some Fi.Torn | Some (Fi.Delay _) | None -> ());
      let torn = match injected with Some Fi.Torn -> true | _ -> false in
      let record = encode kd ~torn (Marshal.to_string (key, v) []) in
      Mutex.protect t.mu (fun () ->
          append t kd record;
          t.stores <- t.stores + 1)
    with
    | () ->
      (* over budget, compact to half of it: each compaction copies at
         most half the budget, and half the budget of stores comes
         before the next one *)
      Option.iter
        (fun budget ->
          Mutex.protect t.mu (fun () ->
              look t;
              if segment_bytes t > budget then
                ignore (compact t ~budget:(Some (budget / 2)) ~keep:(Some kd))))
        t.max_bytes
    | exception e ->
      (* one warning, then stop trying: an unwritable cache directory
         must not warn once per characterization. [gc] re-arms, once
         space is freed; the next write starts a fresh segment, as this
         one may end in part of a record. *)
      Mutex.protect t.mu (fun () ->
          drop_writer t;
          t.write_disabled <- true);
      warn t
        (D.warning ~code:"W0703"
           ~context:[ ("dir", t.dir) ]
           "cannot write cache entry (%s); caching disabled until freed"
           (Printexc.to_string e))
  end

(* ---------- gc: reclaim, validate, quarantine, compact, re-arm ---------- *)

let file_size (path : string) : int =
  match Unix.stat path with
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error _ -> 0

(* An entry file or an orphaned temp file of the one-file-per-entry
   format: [<32 hex>.bin] or [<32 hex>.bin.tmp.<pid>.<n>]. *)
let earlier_format_file (name : string) : bool =
  String.length name >= 36
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       (String.sub name 0 32)
  &&
  let rest = String.sub name 32 (String.length name - 32) in
  rest = ".bin"
  || (match Scanf.sscanf rest ".bin.tmp.%u.%u%!" (fun _ _ -> ()) with
     | () -> true
     | exception _ -> false)

(* Delete the entry files of every earlier format version, and each
   [v<k>] directory once it is empty; nothing else under the root.
   Returns the bytes freed. *)
let reclaim_earlier_formats (t : t) : int =
  let freed = ref 0 in
  for k = 1 to format_version - 1 do
    let dir = Filename.concat t.root (Printf.sprintf "v%d" k) in
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | names ->
      Array.iter
        (fun name ->
          if earlier_format_file name then begin
            let path = Filename.concat dir name in
            let size = file_size path in
            match Sys.remove path with
            | () -> freed := !freed + size
            | exception Sys_error _ -> ()
          end)
        names;
      (try Sys.rmdir dir with Sys_error _ -> ())
  done;
  !freed

let gc ?max_bytes (t : t) : gc_stats =
  check_budget "Disk_cache.gc" max_bytes;
  let earlier = reclaim_earlier_formats t in
  let records =
    Mutex.protect t.mu (fun () ->
        look t;
        Hashtbl.fold (fun kd s acc -> (kd, s) :: acc) t.index [])
  in
  (* validation pass: quarantine anything that no longer checksums *)
  let quarantined =
    List.fold_left
      (fun n (kd, s) ->
        match read_record t s with
        | Some raw when is_dead raw ->
          (* another handle quarantined it already *)
          Mutex.protect t.mu (fun () -> forget t kd s);
          n
        | Some raw when Result.is_error (verified_payload raw) ->
          quarantine t kd s raw;
          n + 1
        | _ -> n)
      0 records
  in
  (* compaction against the requested (or configured) budget *)
  let budget = match max_bytes with Some b -> Some b | None -> t.max_bytes in
  Mutex.protect t.mu (fun () ->
      (* a key whose record the validation dropped may have a live
         record elsewhere, which the compaction must keep *)
      rescan t;
      let before = segment_bytes t in
      let evicted = compact t ~budget ~keep:None in
      let live = segment_bytes t in
      let reenabled = t.write_disabled in
      t.write_disabled <- false;
      { gc_examined = List.length records; gc_quarantined = quarantined;
        gc_evicted = evicted;
        gc_freed_bytes = earlier + max 0 (before - live);
        gc_live_bytes = live; gc_writes_reenabled = reenabled })
