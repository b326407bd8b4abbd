(* The reusable flow engine and its persistent characterization cache:
   the resolver's backing-store hooks, config-digest and subtree keying,
   on-disk round trips, same-key writers, corruption degradation (sweep
   checkpoints included), and warm-run reuse. *)

module V = Alice_verilog
module A = Alice
module C = Alice_config
module D = Alice_diag.Diag
module Fi = Alice_fault.Fault

(* a fresh, not-yet-created directory for a throwaway cache root *)
let tmp_root () =
  let f = Filename.temp_file "alice_engine" ".cache" in
  Sys.remove f;
  f

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* overwrite the bytes at [off] of [path] with [bytes], in place *)
let patch path off bytes =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.write_substring fd bytes 0 (String.length bytes)))

let store_dir root =
  Filename.concat root (Printf.sprintf "v%d" A.Disk_cache.format_version)

(* every segment file of a store rooted at [root] *)
let segment_files root =
  let dir = store_dir root in
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".log")
    |> List.map (Filename.concat dir)

(* The live records of a store rooted at [root], as (segment, offset,
   bytes), read by the documented record format: a header line
   [ALICE-CACHE <version> <md5-of-key> <md5-of-payload> <payload-bytes>],
   then the payload. A dead record ([ALICE-DEAD!]) is skipped; the walk
   of a segment ends at bytes that hold no whole record. *)
let records root =
  List.concat_map
    (fun path ->
      let body = read_file path in
      let rec walk pos acc =
        match String.index_from_opt body pos '\n' with
        | None -> List.rev acc
        | Some nl -> (
          match String.split_on_char ' ' (String.sub body pos (nl - pos)) with
          | [ magic; _; _; _; len ]
            when magic = "ALICE-CACHE" || magic = "ALICE-DEAD!" ->
            let stop = nl + 1 + int_of_string len in
            if stop > String.length body then List.rev acc
            else if magic = "ALICE-DEAD!" then walk stop acc
            else walk stop ((path, pos, String.sub body pos (stop - pos)) :: acc)
          | _ -> List.rev acc)
      in
      walk 0 [])
    (segment_files root)

let contains (s : string) (sub : string) : bool =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

(* the records of the store rooted at [root] whose payload carries a
   key starting with [prefix] ([Marshal] keeps the key's bytes) *)
let records_keyed root prefix =
  List.filter (fun (_, _, bytes) -> contains bytes prefix) (records root)

(* rot a record in place: [bytes] over the start of its payload, so it
   fails its checksum *)
let rot_record (path, off, record) bytes =
  patch path (off + String.index record '\n' + 1) bytes

(* where [store]'s record for [key] lives: segment, offset, length *)
let located store key =
  match A.Disk_cache.locate store ~key with
  | Some r -> r
  | None -> Alcotest.failf "no record for %s" key

let demo_src = {|module f1 (input [7:0] a, output [7:0] y); assign y = a + 8'h1; endmodule
  module f2 (input [7:0] a, output [7:0] y); assign y = a ^ 8'h55; endmodule
  module f3 (input [7:0] a, output [7:0] y); assign y = {a[0], a[7:1]}; endmodule
  module top (input [7:0] x, output [7:0] out1, output [7:0] out2);
    wire [7:0] t;
    f1 u1 (.a(x), .y(t));
    f2 u2 (.a(t), .y(out1));
    f3 u3 (.a(x), .y(out2));
  endmodule|}

let demo_cfg =
  { C.Flow_config.default with
    C.Flow_config.max_io_pins = 40; max_efpgas = 2;
    selected_outputs = [ "out1"; "out2" ];
    min_fabric_size = 2; max_fabric_size = 12 }

let demo_request () =
  A.Flow.request ~config:demo_cfg
    (A.Flow.Text { text = demo_src; file = Some "demo.v" })

(* ---------- memo backing-store hooks ---------- *)

module Memo = Alice_parallel.Memo

let test_memo_hooks () =
  let loads = ref 0 and saved = ref [] in
  let load k =
    incr loads;
    if k = "hot" then Some 42 else None
  in
  let save k v = saved := (k, v) :: !saved in
  let m = Memo.create ~load ~save () in
  let resolve ?keep items =
    Memo.resolve ?keep ~recover:(fun _ _ -> Alcotest.fail "no task fails") m
      Fun.id items
  in
  let check name ~values ~hits ~computed (r : (string, int) Memo.resolution) =
    Alcotest.(check (list int)) (name ^ ": values") values r.Memo.values;
    Alcotest.(check int) (name ^ ": hits") hits r.Memo.hits;
    Alcotest.(check int) (name ^ ": computed") computed r.Memo.computed
  in
  (* "hot" misses memory and hits the store; "cold" misses both and is
     computed once for its two items *)
  check "cold call" ~values:[ 42; 7; 7 ] ~hits:1 ~computed:1
    (resolve [ ("hot", 0); ("cold", 7); ("cold", 8) ]);
  Alcotest.(check int) "one load per distinct key" 2 !loads;
  (* the load hit was installed and the computed value written back:
     neither the store nor [compute] is consulted again *)
  check "warm call" ~values:[ 7; 42 ] ~hits:2 ~computed:0
    (resolve [ ("cold", 99); ("hot", 99) ]);
  Alcotest.(check int) "installed keys skip the load hook" 2 !loads;
  (* a value [keep] rejects is returned but neither installed nor saved *)
  let odd v = v mod 2 = 1 in
  check "rejected" ~values:[ 4 ] ~hits:0 ~computed:1
    (resolve ~keep:odd [ ("even", 4) ]);
  check "rejected again" ~values:[ 4 ] ~hits:0 ~computed:1
    (resolve ~keep:odd [ ("even", 4) ]);
  Alcotest.(check (list (pair string int))) "saved write-backs" [ ("cold", 7) ]
    !saved

(* ---------- cache keys carry the configuration digest ---------- *)

let test_config_digest_in_key () =
  let flow = A.Flow.run_request (demo_request ()) in
  let cluster = List.hd flow.A.Flow.clusters in
  let cfg_a = demo_cfg in
  let cfg_b = { demo_cfg with C.Flow_config.max_fabric_size = 8 } in
  let cfg_c = { demo_cfg with C.Flow_config.lut_inputs = 6 } in
  let digest cfg = (A.Characterize.config_keys cfg).A.Characterize.cfg_final in
  Alcotest.(check bool) "digest differs on fabric bound" true
    (digest cfg_a <> digest cfg_b);
  let key cfg = A.Characterize.keyer flow.A.Flow.design cfg cluster in
  let key_a = key cfg_a and key_b = key cfg_b and key_c = key cfg_c in
  Alcotest.(check bool) "keys differ on fabric bound" true (key_a <> key_b);
  Alcotest.(check bool) "keys differ on lut arch" true (key_a <> key_c);
  (* so two such configs can never share an on-disk entry *)
  let store = A.Disk_cache.create ~root:(tmp_root ()) () in
  A.Disk_cache.store store ~key:key_a "a";
  Alcotest.(check bool) "distinct entry paths" true
    (A.Disk_cache.locate store ~key:key_b = None);
  (* selection-only knobs must NOT invalidate characterizations *)
  let cfg_sel = { demo_cfg with C.Flow_config.alpha = 9.0; max_efpgas = 1 } in
  Alcotest.(check string) "selection knobs reuse" key_a (key cfg_sel)

(* ---------- subtree keys: a child edit rekeys, a relocation does not ---------- *)

(* [top] -> [p] -> [child]; [pad] goes above the design, shifting every
   instance's line *)
let hier_request ?(file = "hier.v") ?(pad = "") child_expr =
  let text =
    pad
    ^ Printf.sprintf
        {|module child (input [7:0] a, input [7:0] b, output [7:0] o);
  assign o = %s;
endmodule
module p (input [7:0] a, input [7:0] b, output [7:0] o);
  child c0 (.a(a), .b(b), .o(o));
endmodule
module top (input [7:0] a, input [7:0] b, output [7:0] y);
  p p0 (.a(a), .b(b), .o(y));
endmodule
|}
        child_expr
  in
  let config =
    { C.Flow_config.default with
      C.Flow_config.top = Some "top"; selected_outputs = [ "y" ];
      max_io_pins = 64; max_efpgas = 1; min_fabric_size = 2;
      max_fabric_size = 20; jobs = 1 }
  in
  A.Flow.request ~config (A.Flow.Text { text; file = Some file })

let test_subtree_keys () =
  let verilog (flow : A.Flow.t) =
    match A.Flow.redact flow with
    | Some r -> r.A.Redact.verilog
    | None -> Alcotest.fail "no redaction"
  in
  let edited = "(a * b) + (a ^ (b << 1))" in
  let engine = A.Engine.create ~cache_dir:(tmp_root ()) () in
  ignore (A.Engine.run engine (hier_request "a & b"));
  (* [p]'s own text is unchanged, but its subtree is not: no cluster
     holding [child] may be served from the cache *)
  let warm = A.Engine.run engine (hier_request edited) in
  let s = warm.A.Flow.char_stats in
  Alcotest.(check int) "child edit: every cluster recomputed"
    s.A.Characterize.unique s.A.Characterize.computed;
  let cold = A.Flow.run_request (hier_request edited) in
  Alcotest.(check string) "child edit: warm equals cold" (verilog cold)
    (verilog warm);
  (* moving the design in its file, or renaming the file, changes only
     source locations: every cluster hits *)
  List.iter
    (fun (label, req) ->
      let flow = A.Engine.run engine req in
      let s = flow.A.Flow.char_stats in
      Alcotest.(check int) (label ^ ": zero computed") 0
        s.A.Characterize.computed;
      Alcotest.(check int) (label ^ ": all hits") s.A.Characterize.unique
        s.A.Characterize.cache_hits;
      Alcotest.(check string) (label ^ ": same output") (verilog cold)
        (verilog flow))
    [ ("line shift", hier_request ~pad:"\n\n\n" edited);
      ("file rename", hier_request ~file:"renamed.v" edited) ]

(* ---------- on-disk store: round trip and degradation ---------- *)

let test_disk_round_trip () =
  let store = A.Disk_cache.create ~root:(tmp_root ()) () in
  A.Disk_cache.store store ~key:"k1" (1, "one");
  A.Disk_cache.store store ~key:"k2" (2, "two");
  Alcotest.(check (option (pair int string))) "round trip" (Some (1, "one"))
    (A.Disk_cache.load store ~key:"k1");
  Alcotest.(check (option (pair int string))) "second entry" (Some (2, "two"))
    (A.Disk_cache.load store ~key:"k2");
  Alcotest.(check (option (pair int string))) "absent key" None
    (A.Disk_cache.load store ~key:"k3");
  let s = A.Disk_cache.stats store in
  Alcotest.(check int) "stores" 2 s.A.Disk_cache.stores;
  Alcotest.(check int) "hits" 2 s.A.Disk_cache.disk_hits;
  Alcotest.(check int) "misses" 1 s.A.Disk_cache.disk_misses;
  Alcotest.(check int) "failures" 0 s.A.Disk_cache.failures

(* degrade [store]'s record for [key] with [mangle], in place (the
   record is its segment's last), then expect a miss plus exactly one
   W0702 through the sink *)
let check_degrades name store key mangle =
  let path, off, len = located store key in
  let body = read_file path in
  write_file path (String.sub body 0 off ^ mangle (String.sub body off len));
  let warned = ref [] in
  A.Disk_cache.set_sink store (fun d -> warned := d :: !warned);
  let got : string option = A.Disk_cache.load store ~key in
  A.Disk_cache.clear_sink store;
  Alcotest.(check (option string)) (name ^ " misses") None got;
  match !warned with
  | [ d ] ->
    Alcotest.(check string) (name ^ " code") "W0702" d.D.code;
    Alcotest.(check bool) (name ^ " is warning") true (d.D.severity = D.Warning)
  | ds -> Alcotest.failf "%s: expected one W0702, got %d diags" name (List.length ds)

let test_unusable_entries_degrade () =
  let fresh key =
    let store = A.Disk_cache.create ~root:(tmp_root ()) () in
    A.Disk_cache.store store ~key "payload";
    store
  in
  (* truncated record: the handle that indexed it reads short *)
  let s1 = fresh "k" in
  check_degrades "truncated" s1 "k" (fun body ->
      String.sub body 0 (String.length body / 2));
  (* empty record *)
  let s2 = fresh "k" in
  check_degrades "empty" s2 "k" (fun _ -> "");
  (* version bump: rewrite the header's version field, checksum intact *)
  let s3 = fresh "k" in
  check_degrades "version mismatch" s3 "k" (fun body ->
      let nl = String.index body '\n' in
      let header = String.sub body 0 nl in
      let rest = String.sub body nl (String.length body - nl) in
      match String.split_on_char ' ' header with
      | magic :: _version :: tail ->
        String.concat " " (magic :: "999" :: tail) ^ rest
      | _ -> Alcotest.fail "unexpected header shape");
  (* corrupt payload byte: checksum must catch it *)
  let s4 = fresh "k" in
  check_degrades "corrupt payload" s4 "k" (fun body ->
      let b = Bytes.of_string body in
      let i = String.length body - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
      Bytes.to_string b);
  (* garbage that was never an entry *)
  let s5 = fresh "k" in
  check_degrades "garbage" s5 "k" (fun _ -> "not a cache entry at all\njunk")

(* ---------- the log's own failure modes ---------- *)

let collect_warnings store =
  let warned = ref [] in
  A.Disk_cache.set_sink store (fun d -> warned := d.D.code :: !warned);
  warned

(* a writer killed mid-record leaves an incomplete tail: a fresh handle
   indexes what precedes it and misses the cut record without a
   diagnostic, and gc drops the tail *)
let test_crash_tail () =
  let root = tmp_root () in
  let writer = A.Disk_cache.create ~root () in
  A.Disk_cache.store writer ~key:"k1" "one";
  A.Disk_cache.store writer ~key:"k2" "two";
  let path, off, len = located writer "k2" in
  (* the cut keeps k2's header, whose declared length now runs past the
     segment's end *)
  let header = String.index (String.sub (read_file path) off len) '\n' + 1 in
  Unix.truncate path (off + header + ((len - header) / 2));
  let fresh = A.Disk_cache.create ~root () in
  let warned = collect_warnings fresh in
  Alcotest.(check (option string)) "k1 loads" (Some "one")
    (A.Disk_cache.load fresh ~key:"k1");
  Alcotest.(check (option string)) "k2 misses" None
    (A.Disk_cache.load fresh ~key:"k2");
  Alcotest.(check (list string)) "no diagnostic" [] !warned;
  A.Disk_cache.store fresh ~key:"k2" "two";
  Alcotest.(check (option string)) "k2 stored anew" (Some "two")
    (A.Disk_cache.load fresh ~key:"k2");
  let g = A.Disk_cache.gc fresh in
  Alcotest.(check int) "nothing to quarantine" 0 g.A.Disk_cache.gc_quarantined;
  let on_disk =
    List.fold_left
      (fun acc f -> acc + (Unix.stat f).Unix.st_size)
      0 (segment_files root)
  and whole =
    List.fold_left (fun acc (_, _, r) -> acc + String.length r) 0 (records root)
  in
  Alcotest.(check int) "gc dropped the cut tail" whole on_disk;
  Alcotest.(check int) "gc merged the two segments" 1
    (List.length (segment_files root));
  Alcotest.(check int) "live bytes reported" on_disk g.A.Disk_cache.gc_live_bytes;
  let after = A.Disk_cache.create ~root () in
  Alcotest.(check (list (option string))) "both load after gc"
    [ Some "one"; Some "two" ]
    (List.map (fun key -> A.Disk_cache.load after ~key) [ "k1"; "k2" ]);
  Alcotest.(check (list string)) "still no diagnostic" [] !warned

(* a rotted record is marked dead where it lies, so a handle that opens
   the store later finds the write-back, not the rot *)
let test_rot_paid_once () =
  let root = tmp_root () in
  let writer = A.Disk_cache.create ~root () in
  A.Disk_cache.store writer ~key:"k" "value";
  let path, off, len = located writer "k" in
  rot_record (path, off, String.sub (read_file path) off len) "rotted";
  let h1 = A.Disk_cache.create ~root () in
  let w1 = collect_warnings h1 in
  Alcotest.(check (option string)) "handle 1 misses" None
    (A.Disk_cache.load h1 ~key:"k");
  Alcotest.(check (list string)) "handle 1 warns once" [ "W0702" ] !w1;
  A.Disk_cache.store h1 ~key:"k" "value";
  let h2 = A.Disk_cache.create ~root () in
  let w2 = collect_warnings h2 in
  Alcotest.(check (option string)) "handle 2 loads the write-back" (Some "value")
    (A.Disk_cache.load h2 ~key:"k");
  Alcotest.(check (list string)) "handle 2 warns nothing" [] !w2

(* a handle that indexed a record before another handle quarantined it
   takes the dead mark for a silent miss, and finds the write-back even
   in a segment it scanned while the dead record was still indexed; a
   gc by such a handle quarantines nothing and keeps the write-back *)
let test_dead_after_indexing () =
  let root = tmp_root () in
  let writer = A.Disk_cache.create ~root () in
  A.Disk_cache.store writer ~key:"k" "value";
  let early = A.Disk_cache.create ~root ()
  and collector = A.Disk_cache.create ~root () in
  let warned = collect_warnings early in
  List.iter
    (fun h ->
      Alcotest.(check (option string)) "a handle indexes k" (Some "value")
        (A.Disk_cache.load h ~key:"k"))
    [ early; collector ];
  let path, off, len = located writer "k" in
  rot_record (path, off, String.sub (read_file path) off len) "rotted";
  let repairer = A.Disk_cache.create ~root () in
  Alcotest.(check (option string)) "the repairer misses" None
    (A.Disk_cache.load repairer ~key:"k");
  A.Disk_cache.store repairer ~key:"k" "value";
  (* a miss has the early handle scan the repairer's segment while it
     still indexes the dead record, so the write-back is passed over *)
  Alcotest.(check (option string)) "another key misses" None
    (A.Disk_cache.load early ~key:"other");
  Alcotest.(check (option string)) "early handle loads the write-back"
    (Some "value")
    (A.Disk_cache.load early ~key:"k");
  Alcotest.(check (list string)) "early handle warns nothing" [] !warned;
  Alcotest.(check int) "early handle quarantines nothing" 0
    (A.Disk_cache.stats early).A.Disk_cache.quarantined;
  let g = A.Disk_cache.gc collector in
  Alcotest.(check int) "the collector's gc quarantines nothing" 0
    g.A.Disk_cache.gc_quarantined;
  Alcotest.(check int) "gc merged the store into one segment" 1
    (List.length (segment_files root));
  Alcotest.(check (option string)) "the merged store keeps the write-back"
    (Some "value")
    (A.Disk_cache.load (A.Disk_cache.create ~root ()) ~key:"k")

(* another handle's compaction deletes this handle's segment; the next
   store must go to a fresh segment, not to the unlinked file *)
let test_deleted_segment () =
  let root = tmp_root () in
  let a = A.Disk_cache.create ~root () in
  A.Disk_cache.store a ~key:"k1" "one";
  let segment, _, _ = located a "k1" in
  let b = A.Disk_cache.create ~root () in
  ignore (A.Disk_cache.gc ~max_bytes:0 b);
  Alcotest.(check bool) "b's gc deleted a's segment" false (Sys.file_exists segment);
  A.Disk_cache.store a ~key:"k2" "two";
  Alcotest.(check (option string)) "a fresh handle loads a's next store"
    (Some "two")
    (A.Disk_cache.load (A.Disk_cache.create ~root ()) ~key:"k2")

(* gc merges two segments into one; a handle that indexed a record
   finds it again in the merged segment, and sees records stored after
   its last look *)
let test_follows_compaction () =
  let root = tmp_root () in
  let writer = A.Disk_cache.create ~root () in
  A.Disk_cache.store writer ~key:"k1" "one";
  A.Disk_cache.store (A.Disk_cache.create ~root ()) ~key:"k0" "zero";
  let reader = A.Disk_cache.create ~root () in
  let warned = collect_warnings reader in
  Alcotest.(check (option string)) "reader indexes k1" (Some "one")
    (A.Disk_cache.load reader ~key:"k1");
  Alcotest.(check (option string)) "k2 not stored yet" None
    (A.Disk_cache.load reader ~key:"k2");
  let segment, _, _ = located writer "k1" in
  ignore (A.Disk_cache.gc (A.Disk_cache.create ~root ()));
  Alcotest.(check bool) "the compaction deleted k1's segment" false
    (Sys.file_exists segment);
  Alcotest.(check int) "one segment left" 1 (List.length (segment_files root));
  Alcotest.(check (option string)) "k1 found in the fresh segment" (Some "one")
    (A.Disk_cache.load reader ~key:"k1");
  A.Disk_cache.store writer ~key:"k2" "two";
  Alcotest.(check (option string)) "k2 seen after its store" (Some "two")
    (A.Disk_cache.load reader ~key:"k2");
  Alcotest.(check (list string)) "no diagnostic" [] !warned

(* gc deletes the entry files and orphaned temp files a one-file-per-
   entry store left under an earlier version's directory, and nothing
   else there *)
let test_gc_reclaims_earlier_format () =
  let root = tmp_root () in
  let v1 = Filename.concat root "v1" in
  Sys.mkdir root 0o755;
  Sys.mkdir v1 0o755;
  let entry = Filename.concat v1 (Digest.to_hex (Digest.string "old") ^ ".bin") in
  let tmp = entry ^ ".tmp.4242.7" and notes = Filename.concat v1 "notes.txt" in
  write_file entry (String.make 100 'e');
  write_file tmp (String.make 30 't');
  write_file notes "kept";
  let store = A.Disk_cache.create ~root () in
  let g = A.Disk_cache.gc store in
  Alcotest.(check (list bool)) "entry and temp file gone, notes kept"
    [ false; false; true ]
    (List.map Sys.file_exists [ entry; tmp; notes ]);
  Alcotest.(check int) "their bytes freed" 130 g.A.Disk_cache.gc_freed_bytes;
  (* once nothing else is left, the directory goes too *)
  Sys.remove notes;
  write_file entry "e";
  ignore (A.Disk_cache.gc store);
  Alcotest.(check bool) "empty v1 removed" false (Sys.file_exists v1)

(* ---------- engine: cold vs warm across processes ---------- *)

let test_engine_warm_identical () =
  let root = tmp_root () in
  (* cold: a fresh engine over an empty store *)
  let cold_engine = A.Engine.create ~cache_dir:root () in
  let cold = A.Engine.run cold_engine (demo_request ()) in
  let cold_stats = cold.A.Flow.char_stats in
  Alcotest.(check int) "cold: no hits" 0 cold_stats.A.Characterize.cache_hits;
  Alcotest.(check int) "cold: computed all" cold_stats.A.Characterize.unique
    cold_stats.A.Characterize.computed;
  Alcotest.(check bool) "entries persisted" true (records root <> []);
  (* warm: a NEW engine over the same store — a second process *)
  let warm_engine = A.Engine.create ~cache_dir:root () in
  let warm = A.Engine.run warm_engine (demo_request ()) in
  let warm_stats = warm.A.Flow.char_stats in
  Alcotest.(check int) "warm: zero computed" 0 warm_stats.A.Characterize.computed;
  Alcotest.(check int) "warm: all hits" warm_stats.A.Characterize.unique
    warm_stats.A.Characterize.cache_hits;
  Alcotest.(check int) "same unique count" cold_stats.A.Characterize.unique
    warm_stats.A.Characterize.unique;
  (* bit-identical output: the redacted Verilog is the flow's full
     observable product *)
  let verilog (flow : A.Flow.t) =
    match A.Flow.redact flow with
    | Some r -> r.A.Redact.verilog
    | None -> Alcotest.fail "expected a redactable solution"
  in
  Alcotest.(check string) "redacted Verilog byte-identical" (verilog cold)
    (verilog warm);
  Alcotest.(check string) "diagnostics identical"
    (D.list_to_json cold.A.Flow.diags)
    (D.list_to_json warm.A.Flow.diags)

let test_engine_survives_store_corruption () =
  let root = tmp_root () in
  let cold = A.Engine.run (A.Engine.create ~cache_dir:root ()) (demo_request ()) in
  (* corrupt every persisted record in place: a cut segment tail would
     be an incomplete write, silently a miss *)
  List.iter (fun r -> rot_record r "rotted") (records root);
  let warm_engine = A.Engine.create ~cache_dir:root () in
  let warm = A.Engine.run warm_engine (demo_request ()) in
  let stats = warm.A.Flow.char_stats in
  (* every entry was unusable: full recompute, never a crash *)
  Alcotest.(check int) "recomputed all" stats.A.Characterize.unique
    stats.A.Characterize.computed;
  let w0702 =
    List.filter (fun (d : D.t) -> d.D.code = "W0702") warm.A.Flow.diags
  in
  Alcotest.(check bool) "W0702 reported" true (w0702 <> []);
  Alcotest.(check bool) "no errors" true
    (not (List.exists D.is_error warm.A.Flow.diags));
  (* the recomputed selection matches the cold one *)
  Alcotest.(check (option (float 1e-9))) "same best score"
    (Option.map (fun s -> s.A.Selection.total_score)
       cold.A.Flow.selection.A.Selection.best)
    (Option.map (fun s -> s.A.Selection.total_score)
       warm.A.Flow.selection.A.Selection.best)

let test_engine_no_cache () =
  let engine = A.Engine.create ~cache:false () in
  Alcotest.(check (option string)) "no root" None (A.Engine.cache_root engine);
  Alcotest.(check bool) "no disk stats" true (A.Engine.disk_stats engine = None);
  let flow = A.Engine.run engine (demo_request ()) in
  Alcotest.(check bool) "still solves" true
    (flow.A.Flow.selection.A.Selection.best <> None);
  (* in-memory reuse still works within the engine's lifetime *)
  let again = A.Engine.run engine (demo_request ()) in
  Alcotest.(check int) "second run zero computed" 0
    again.A.Flow.char_stats.A.Characterize.computed

(* ---------- a batch on the SoC: reuse across runs ---------- *)

let test_batch_soc_warm () =
  let soc_cfg =
    { C.Flow_config.cfg1 with
      C.Flow_config.selected_outputs = Alice_benchmarks.Soc.selected_outputs;
      top = Some Alice_benchmarks.Soc.top;
      min_fabric_size = 4; max_fabric_size = 20; min_clb_utilization = 0.3 }
  in
  let req () =
    A.Flow.request ~config:soc_cfg
      (A.Flow.Text { text = Alice_benchmarks.Soc.source; file = Some "soc.v" })
  in
  (* the selected solution: each eFPGA's cluster and fabric, and the
     total score *)
  let best (flow : A.Flow.t) =
    Option.map
      (fun (s : A.Selection.solution) ->
        ( List.map
            (fun (e : A.Selection.efpga_impl) ->
              ( e.A.Selection.cluster.A.Clustering.key,
                Alice_fabric.Fabric.size_label
                  e.A.Selection.impl.Alice_fabric.Size_search.fabric ))
            s.A.Selection.efpgas,
          s.A.Selection.total_score ))
      flow.A.Flow.selection.A.Selection.best
  in
  let root = tmp_root () in
  let engine = A.Engine.create ~cache_dir:root () in
  (* one batch, same job twice: the second must reuse everything *)
  let first, second =
    match List.map (A.Engine.run engine) [ req (); req () ] with
    | [ first; second ] -> (first, second)
    | _ -> Alcotest.fail "batch arity"
  in
  Alcotest.(check bool) "first computes" true
    (first.A.Flow.char_stats.A.Characterize.computed > 0);
  Alcotest.(check int) "second: zero recomputations" 0
    second.A.Flow.char_stats.A.Characterize.computed;
  Alcotest.(check int) "second: all hits"
    second.A.Flow.char_stats.A.Characterize.unique
    second.A.Flow.char_stats.A.Characterize.cache_hits;
  (* a new engine over the same store: warm across processes too *)
  let warm = A.Engine.run (A.Engine.create ~cache_dir:root ()) (req ()) in
  Alcotest.(check int) "fresh engine: zero recomputations" 0
    warm.A.Flow.char_stats.A.Characterize.computed;
  Alcotest.(check bool) "first selects a solution" true (best first <> None);
  Alcotest.(check bool) "second selects the first's solution" true
    (best second = best first);
  Alcotest.(check bool) "fresh engine selects the first's solution" true
    (best warm = best first)

(* ---------- concurrent writers, one cache dir ---------- *)

(* two writers hammering the same keys in one store directory while a
   reader polls: the reader's scan indexes only whole records, so a
   load sees either nothing or a complete entry, never a torn one
   (which would surface as a W0702 failure in the reader's stats) *)
let test_concurrent_writers () =
  let root = tmp_root () in
  let keys = List.init 16 (fun i -> Printf.sprintf "shared-key-%d" i) in
  (* payload big enough that a non-atomic write would be observably
     partial *)
  let value_of k = (k, String.concat "/" (List.init 200 (fun _ -> k))) in
  let writer () =
    let store = A.Disk_cache.create ~root () in
    for _round = 1 to 20 do
      List.iter (fun k -> A.Disk_cache.store store ~key:k (value_of k)) keys
    done;
    A.Disk_cache.stats store
  in
  let w1 = Domain.spawn writer and w2 = Domain.spawn writer in
  let reader = A.Disk_cache.create ~root () in
  A.Disk_cache.set_sink reader (fun d ->
      Alcotest.failf "reader diagnostic: %s" (Format.asprintf "%a" D.pp d));
  (* poll while the writers run: every successful load must be whole *)
  for _ = 1 to 200 do
    List.iter
      (fun k ->
        match A.Disk_cache.load reader ~key:k with
        | None -> ()
        | Some v ->
          Alcotest.(check (pair string string))
            "no torn read" (value_of k) v)
      keys
  done;
  let s1 = Domain.join w1 and s2 = Domain.join w2 in
  Alcotest.(check int) "writer 1 clean" 0 s1.A.Disk_cache.failures;
  Alcotest.(check int) "writer 2 clean" 0 s2.A.Disk_cache.failures;
  (* after the dust settles every key reads back exactly *)
  List.iter
    (fun k ->
      Alcotest.(check (option (pair string string)))
        "final value" (Some (value_of k))
        (A.Disk_cache.load reader ~key:k))
    keys;
  Alcotest.(check int) "reader saw no corrupt entry" 0
    (A.Disk_cache.stats reader).A.Disk_cache.failures

(* ---------- same-key writers, one store ---------- *)

(* two threads of one process storing one key, as a server's workers
   do: unless their appends are serialized and each is indexed at its
   own offset, a load reads an interleaved or half-written record
   (W0702) or a write fails (W0703, writes disabled) *)
let test_same_key_writers () =
  let store = A.Disk_cache.create ~root:(tmp_root ()) () in
  let warned = ref [] in
  A.Disk_cache.set_sink store (fun d -> warned := d.D.code :: !warned);
  let payload = String.make 65536 'x' in
  let lost = ref 0 in
  for round = 1 to 200 do
    let writer () = A.Disk_cache.store store ~key:"k" (round, payload) in
    List.iter Thread.join (List.init 2 (fun _ -> Thread.create writer ()));
    if A.Disk_cache.load store ~key:"k" <> Some (round, payload) then incr lost
  done;
  Alcotest.(check (list string)) "no W0702/W0703" [] !warned;
  Alcotest.(check int) "every round's entry loads" 0 !lost

(* ---------- sweep points carry the advisor's objectives ---------- *)

let test_sweep_point_metrics () =
  let engine = A.Engine.create ~cache:false () in
  match
    A.Engine.run_sweep engine [ ("only", demo_request ()) ]
  with
  | [ sp ] -> (
    Alcotest.(check bool) "feasible" true sp.A.Engine.sp_feasible;
    match sp.A.Engine.sp_metrics with
    | None -> Alcotest.fail "feasible point without metrics"
    | Some m ->
      Alcotest.(check bool) "positive area" true
        (Float.is_finite m.A.Engine.pm_area_um2 && m.A.Engine.pm_area_um2 > 0.0);
      Alcotest.(check bool) "positive critical path" true
        (Float.is_finite m.A.Engine.pm_timing_ns
        && m.A.Engine.pm_timing_ns > 0.0);
      Alcotest.(check bool) "finite security" true
        (Float.is_finite m.A.Engine.pm_security);
      Alcotest.(check bool) "heuristic scale" true
        (m.A.Engine.pm_security_mode = C.Flow_config.Heuristic))
  | _ -> Alcotest.fail "run_sweep arity"

(* ---------- one attack-verdict pool across sweep entries ---------- *)

(* a measured sweep of the demo design over two entries that differ
   only in a knob outside attack_digest (attack_area_weight) *)
let measured_points () =
  let measured w =
    { demo_cfg with
      C.Flow_config.score_mode = C.Flow_config.Measured;
      attack_budget = 2_000; attack_iterations = 16; attack_jobs = 1;
      attack_area_weight = w }
  in
  let req cfg =
    A.Flow.request ~config:cfg
      (A.Flow.Text { text = demo_src; file = Some "demo.v" })
  in
  [ ("w-low", req (measured 0.1)); ("w-high", req (measured 0.9)) ]

(* the two entries must share verdicts: the second entry re-ranks
   cached verdicts and runs zero new attacks *)
let test_sweep_shares_attack_pool () =
  let engine = A.Engine.create ~cache_dir:(tmp_root ()) () in
  match A.Engine.run_sweep engine (measured_points ()) with
  | [ first; second ] ->
    Alcotest.(check bool) "first entry attacks" true
      (first.A.Engine.sp_attacks_run > 0);
    Alcotest.(check int) "second entry: zero duplicate attacks" 0
      second.A.Engine.sp_attacks_run;
    Alcotest.(check int) "second entry: verdicts from the shared pool"
      first.A.Engine.sp_attacks_run second.A.Engine.sp_attacks_cached
  | _ -> Alcotest.fail "run_sweep arity"

(* ---------- an unusable sweep checkpoint is reported ---------- *)

(* a corrupt checkpoint is quarantined and its point recomputed, with a
   W0702 on that point's diagnostics *)
let test_sweep_checkpoint_warning () =
  let root = tmp_root () in
  let sweep () =
    A.Engine.run_sweep (A.Engine.create ~cache_dir:root ())
      [ ("p1", demo_request ()) ]
  in
  ignore (sweep ());
  (match records_keyed root "sweep-point v" with
  | [ checkpoint ] -> rot_record checkpoint "rotted"
  | rs -> Alcotest.failf "expected one checkpoint, found %d" (List.length rs));
  match sweep () with
  | [ sp ] -> (
    Alcotest.(check bool) "recomputed" false sp.A.Engine.sp_resumed;
    match
      List.filter (fun (d : D.t) -> d.D.code = "W0702") (A.Engine.point_diags sp)
    with
    | [ d ] ->
      Alcotest.(check (option string)) "tagged with its point" (Some "p1")
        (List.assoc_opt "config" d.D.context)
    | ds -> Alcotest.failf "expected one W0702, got %d" (List.length ds))
  | _ -> Alcotest.fail "run_sweep arity"

(* ---------- one budget and one gc cover every kind of entry ---------- *)

(* every file under [dir], at any depth *)
let rec all_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         if Sys.is_directory path then all_files path else [ path ])

(* characterizations, attack verdicts and sweep checkpoints share one
   store, so one budget bounds them all and gc examines every kind. The
   measured sweep writes 12 entries (5,843 bytes, none above 1,311),
   the verdicts and checkpoints last; a store over 4,096 bytes compacts
   to the most recently used 2,048, and stores go on from there, so
   every verdict and checkpoint stays (8 records, 2,943 bytes) *)
let test_budget_covers_every_entry () =
  let root = tmp_root () and max_bytes = 4096 in
  let engine = A.Engine.create ~cache_dir:root ~max_bytes ~faults:Fi.none () in
  ignore (A.Engine.run_sweep engine (measured_points ()));
  let segments = segment_files root in
  Alcotest.(check (list string)) "every entry in the one store" segments
    (List.sort compare (all_files root));
  let total =
    List.fold_left (fun acc f -> acc + (Unix.stat f).Unix.st_size) 0 segments
  in
  if total > max_bytes then
    Alcotest.failf "%d bytes on disk over a %d-byte budget" total max_bytes;
  let entries = List.length (records root) in
  let rot prefix =
    match records_keyed root prefix with
    | r :: _ -> rot_record r "garbage"
    | [] -> Alcotest.failf "no %S entry kept" prefix
  in
  rot "attack-verdict v";
  rot "sweep-point v";
  match A.Engine.gc engine with
  | None -> Alcotest.fail "the engine has a store"
  | Some g ->
    Alcotest.(check int) "gc examines every entry" entries
      g.A.Disk_cache.gc_examined;
    Alcotest.(check int) "gc quarantines the verdict and the checkpoint" 2
      g.A.Disk_cache.gc_quarantined

(* ---------- on_point fires only after the checkpoint write ---------- *)

(* a consumer that dies mid-delivery loses the row, never the work: the
   observed point is already checkpointed, so the rerun serves it back
   as resumed instead of silently skipping or recomputing it *)
let test_sweep_on_point_after_checkpoint () =
  let root = tmp_root () in
  let points () =
    [ ("p1", demo_request ());
      ("p2",
       A.Flow.request
         ~config:{ demo_cfg with C.Flow_config.max_fabric_size = 8 }
         (A.Flow.Text { text = demo_src; file = Some "demo.v" })) ]
  in
  let fresh () = A.Engine.create ~cache_dir:root () in
  let seen = ref [] in
  (* the observer hangs up after the first row *)
  (match
     A.Engine.run_sweep
       ~on_point:(fun sp ->
         seen := sp.A.Engine.sp_name :: !seen;
         failwith "consumer hung up")
       (fresh ()) (points ())
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "observer exception must abort the sweep");
  Alcotest.(check (list string)) "one row delivered" [ "p1" ] !seen;
  (* rerun: the delivered point was checkpointed BEFORE delivery, so it
     resumes; the undelivered remainder is computed and delivered *)
  let delivered = ref [] in
  (match
     A.Engine.run_sweep
       ~on_point:(fun sp ->
         delivered := (sp.A.Engine.sp_name, sp.A.Engine.sp_resumed) :: !delivered)
       (fresh ()) (points ())
   with
  | [ p1; p2 ] ->
    Alcotest.(check bool) "p1 resumed, not recomputed" true
      p1.A.Engine.sp_resumed;
    Alcotest.(check bool) "p2 computed" false p2.A.Engine.sp_resumed
  | _ -> Alcotest.fail "run_sweep arity");
  Alcotest.(check (list (pair string bool))) "both rows re-delivered in order"
    [ ("p1", true); ("p2", false) ]
    (List.rev !delivered)

(* a checkpoint key digests the source's structure, not its memory
   layout: an AST equal to the swept one but with no sharing, as a
   library caller that rebuilds its design holds, resumes every point *)
let test_sweep_resumes_rebuilt_ast () =
  let root = tmp_root () in
  let ast = V.Parser.parse demo_src in
  let rebuilt : V.Ast.design =
    Marshal.from_string (Marshal.to_string ast [ Marshal.No_sharing ]) 0
  in
  let points ast =
    List.map
      (fun (name, config) -> (name, A.Flow.request ~config (A.Flow.Ast ast)))
      [ ("p1", demo_cfg);
        ("p2", { demo_cfg with C.Flow_config.max_fabric_size = 8 }) ]
  in
  ignore (A.Engine.run_sweep (A.Engine.create ~cache_dir:root ()) (points ast));
  List.iter
    (fun (sp : A.Engine.sweep_point) ->
      Alcotest.(check bool) (sp.A.Engine.sp_name ^ " resumed") true
        sp.A.Engine.sp_resumed)
    (A.Engine.run_sweep (A.Engine.create ~cache_dir:root ()) (points rebuilt))

let tests =
  [ Alcotest.test_case "memo hooks" `Quick test_memo_hooks;
    Alcotest.test_case "same-key writers, one store" `Quick
      test_same_key_writers;
    Alcotest.test_case "concurrent writers same dir" `Quick
      test_concurrent_writers;
    Alcotest.test_case "config digest in cache key" `Quick
      test_config_digest_in_key;
    Alcotest.test_case "subtree keys" `Quick test_subtree_keys;
    Alcotest.test_case "disk round trip" `Quick test_disk_round_trip;
    Alcotest.test_case "unusable entries degrade" `Quick
      test_unusable_entries_degrade;
    Alcotest.test_case "crash tail is silent" `Quick test_crash_tail;
    Alcotest.test_case "rot is paid once across handles" `Quick
      test_rot_paid_once;
    Alcotest.test_case "a record dead after indexing is a silent miss" `Quick
      test_dead_after_indexing;
    Alcotest.test_case "deleted segment starts a fresh one" `Quick
      test_deleted_segment;
    Alcotest.test_case "a handle follows another's compaction" `Quick
      test_follows_compaction;
    Alcotest.test_case "gc reclaims an earlier format" `Quick
      test_gc_reclaims_earlier_format;
    Alcotest.test_case "warm engine bit-identical" `Quick
      test_engine_warm_identical;
    Alcotest.test_case "store corruption survived" `Quick
      test_engine_survives_store_corruption;
    Alcotest.test_case "engine without cache" `Quick test_engine_no_cache;
    Alcotest.test_case "batch soc warm" `Quick test_batch_soc_warm;
    Alcotest.test_case "sweep point metrics" `Quick test_sweep_point_metrics;
    Alcotest.test_case "sweep shares one attack pool" `Quick
      test_sweep_shares_attack_pool;
    Alcotest.test_case "on_point after checkpoint" `Quick
      test_sweep_on_point_after_checkpoint;
    Alcotest.test_case "unusable sweep checkpoint warns" `Quick
      test_sweep_checkpoint_warning;
    Alcotest.test_case "rebuilt AST resumes its sweep" `Quick
      test_sweep_resumes_rebuilt_ast;
    Alcotest.test_case "one budget and gc cover every entry" `Quick
      test_budget_covers_every_entry ]
