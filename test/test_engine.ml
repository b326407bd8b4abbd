(* The reusable flow engine and its persistent characterization cache:
   the resolver's backing-store hooks, config-digest and subtree keying,
   on-disk round trips, same-key writers, corruption degradation (sweep
   checkpoints included), and warm-run reuse. *)

module V = Alice_verilog
module A = Alice
module C = Alice_config
module D = Alice_diag.Diag

(* a fresh, not-yet-created directory for a throwaway cache root *)
let tmp_root () =
  let f = Filename.temp_file "alice_engine" ".cache" in
  Sys.remove f;
  f

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* every entry file of a store rooted at [root] *)
let entry_files root =
  let dir = Filename.concat root (Printf.sprintf "v%d" A.Disk_cache.format_version) in
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".bin")
    |> List.map (Filename.concat dir)

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
  Alcotest.(check bool) "digest differs on fabric bound" true
    (C.Flow_config.characterize_digest cfg_a
     <> C.Flow_config.characterize_digest cfg_b);
  let key cfg = A.Characterize.keyer flow.A.Flow.design cfg cluster in
  let key_a = key cfg_a and key_b = key cfg_b and key_c = key cfg_c in
  Alcotest.(check bool) "keys differ on fabric bound" true (key_a <> key_b);
  Alcotest.(check bool) "keys differ on lut arch" true (key_a <> key_c);
  (* so two such configs can never share an on-disk entry *)
  let store = A.Disk_cache.create ~root:(tmp_root ()) () in
  Alcotest.(check bool) "distinct entry paths" true
    (A.Disk_cache.entry_path store key_a <> A.Disk_cache.entry_path store key_b);
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

(* degrade [store]'s entry for [key] with [mangle], then expect a miss
   plus exactly one W0702 through the sink *)
let check_degrades name store key mangle =
  let path = A.Disk_cache.entry_path store key in
  write_file path (mangle (read_file path));
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
  (* truncated file *)
  let s1 = fresh "k" in
  check_degrades "truncated" s1 "k" (fun body ->
      String.sub body 0 (String.length body / 2));
  (* empty file *)
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
  Alcotest.(check bool) "entries persisted" true (entry_files root <> []);
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
  (* truncate every persisted entry *)
  List.iter
    (fun f ->
      let body = read_file f in
      write_file f (String.sub body 0 (min 10 (String.length body))))
    (entry_files root);
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
  let root = tmp_root () in
  let engine = A.Engine.create ~cache_dir:root () in
  (* one batch, same job twice: the second must reuse everything *)
  (match List.map (A.Engine.run engine) [ req (); req () ] with
  | [ first; second ] ->
    Alcotest.(check bool) "first computes" true
      (first.A.Flow.char_stats.A.Characterize.computed > 0);
    Alcotest.(check int) "second: zero recomputations" 0
      second.A.Flow.char_stats.A.Characterize.computed;
    Alcotest.(check int) "second: all hits"
      second.A.Flow.char_stats.A.Characterize.unique
      second.A.Flow.char_stats.A.Characterize.cache_hits
  | _ -> Alcotest.fail "batch arity");
  (* a new engine over the same store: warm across processes too *)
  let warm = A.Engine.run (A.Engine.create ~cache_dir:root ()) (req ()) in
  Alcotest.(check int) "fresh engine: zero recomputations" 0
    warm.A.Flow.char_stats.A.Characterize.computed

(* ---------- concurrent writers, one cache dir ---------- *)

(* two writers hammering the same keys in one store directory while a
   reader polls: atomic tmp+rename means a load sees either nothing or
   a complete entry, never a torn one (which would surface as a W0702
   failure in the reader's stats) *)
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
   do: unless every write has a temp file of its own, one writer's
   rename finds the file gone (W0703, writes disabled) or moves a
   half-written one into place (W0702 on the next load) *)
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

(* two entries that differ only in a knob outside attack_digest
   (attack_area_weight) must share verdicts: the second entry re-ranks
   cached verdicts and runs zero new attacks *)
let test_sweep_shares_attack_pool () =
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
  let engine = A.Engine.create ~cache_dir:(tmp_root ()) () in
  match
    A.Engine.run_sweep engine
      [ ("w-low", req (measured 0.1)); ("w-high", req (measured 0.9)) ]
  with
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
  (match entry_files (Filename.concat root "sweep") with
  | [ checkpoint ] -> write_file checkpoint "rotted"
  | fs -> Alcotest.failf "expected one checkpoint, found %d" (List.length fs));
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
      test_sweep_checkpoint_warning ]
