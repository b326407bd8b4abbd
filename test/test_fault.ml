(* The fault-injection plan DSL and every self-healing layer it
   exercises: deterministic triggers, client backoff schedules, cache
   quarantine/eviction/ENOSPC repair, pool worker containment,
   resumable sweeps, fd-leak regressions, and an end-to-end server run
   under a hostile plan (worker kill + torn write + ENOSPC) that must
   still answer every request byte-identically. *)

module A = Alice
module C = Alice_config
module D = Alice_diag.Diag
module J = Alice_config.Json_lite
module Y = Alice_config.Yaml_lite
module S = Alice_server
module Fi = Alice_fault.Fault
module P = Alice_parallel.Pool

(* a fresh, not-yet-created directory for a throwaway cache root *)
let tmp_root () =
  let f = Filename.temp_file "alice_fault" ".cache" in
  Sys.remove f;
  f

(* ---------- plan parsing and trigger semantics ---------- *)

let test_parse_round_trip () =
  let plan =
    Fi.parse "cache.write=torn@2;server.worker=kill@3;sock.read=eintr@1+"
  in
  (match Fi.rules plan with
  | [ r1; r2; r3 ] ->
    Alcotest.(check string) "site 1" "cache.write" r1.Fi.site;
    Alcotest.(check bool) "action 1" true (r1.Fi.action = Fi.Torn);
    Alcotest.(check bool) "trigger 1" true (r1.Fi.trigger = Fi.Nth 2);
    Alcotest.(check bool) "action 2" true (r2.Fi.action = Fi.Kill);
    Alcotest.(check string) "site 3" "sock.read" r3.Fi.site;
    Alcotest.(check bool) "trigger 3" true (r3.Fi.trigger = Fi.After 1)
  | rs -> Alcotest.failf "expected 3 rules, got %d" (List.length rs));
  (* to_string round-trips through parse *)
  let again = Fi.parse (Fi.to_string plan) in
  Alcotest.(check bool) "round trip" true (Fi.rules again = Fi.rules plan);
  (* delay carries milliseconds, every-N is % *)
  (match Fi.rules (Fi.parse "x=delay:250@2%") with
  | [ r ] ->
    Alcotest.(check bool) "delay action" true (r.Fi.action = Fi.Delay 0.25);
    Alcotest.(check bool) "every trigger" true (r.Fi.trigger = Fi.Every 2)
  | _ -> Alcotest.fail "delay rule shape");
  Alcotest.(check bool) "empty is none" true (Fi.is_none (Fi.parse ""));
  Alcotest.(check bool) "none is none" true (Fi.is_none Fi.none);
  let bad spec =
    match Fi.parse spec with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "accepted %S" spec
  in
  bad "nonsense";
  bad "site=explode@1";
  bad "site=fail@zero";
  bad "=fail@1";
  (* a trigger-less rule defaults to the first hit *)
  match Fi.rules (Fi.parse "site=fail") with
  | [ r ] -> Alcotest.(check bool) "default trigger" true (r.Fi.trigger = Fi.Nth 1)
  | _ -> Alcotest.fail "default-trigger rule shape"

let test_trigger_semantics () =
  let fires plan site n =
    List.init n (fun _ -> Fi.check plan site <> None)
  in
  Alcotest.(check (list bool)) "nth"
    [ false; false; true; false ]
    (fires (Fi.parse "s=fail@3") "s" 4);
  Alcotest.(check (list bool)) "after"
    [ false; true; true; true ]
    (fires (Fi.parse "s=fail@2+") "s" 4);
  Alcotest.(check (list bool)) "every"
    [ false; true; false; true ]
    (fires (Fi.parse "s=fail@2%") "s" 4);
  (* other sites never fire, and injections are counted per site *)
  let plan = Fi.parse "s=fail@1" in
  Alcotest.(check bool) "wrong site" true (Fi.check plan "t" = None);
  Alcotest.(check bool) "right site" true (Fi.check plan "s" <> None);
  Alcotest.(check (list (pair string int))) "injected" [ ("s", 1) ]
    (Fi.injected plan);
  Alcotest.(check int) "total" 1 (Fi.total_injected plan);
  (* reset re-arms the counters: the Nth hit fires again *)
  Fi.reset plan;
  Alcotest.(check int) "counts cleared" 0 (Fi.total_injected plan);
  Alcotest.(check bool) "rearmed" true (Fi.check plan "s" <> None)

let test_hit_default_actions () =
  (match Fi.hit (Fi.parse "s=fail@1") "s" with
  | exception Fi.Injected { site; action } ->
    Alcotest.(check string) "fail site" "s" site;
    Alcotest.(check bool) "fail action" true (action = Fi.Fail)
  | () -> Alcotest.fail "fail did not raise");
  (match Fi.hit (Fi.parse "s=enospc@1") "s" with
  | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ()
  | _ -> Alcotest.fail "enospc did not raise ENOSPC");
  (match Fi.hit (Fi.parse "s=eagain@1") "s" with
  | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> ()
  | _ -> Alcotest.fail "eagain did not raise EAGAIN");
  (* a quiet site and a non-firing hit are no-ops *)
  Fi.hit Fi.none "anything";
  Fi.hit (Fi.parse "s=fail@2") "s"

(* ---------- client backoff schedules ---------- *)

let test_backoff_deterministic () =
  let r = S.Client.default_retry in
  let d1 = S.Client.delays r and d2 = S.Client.delays r in
  Alcotest.(check int) "attempts-1 delays" (r.S.Client.attempts - 1)
    (List.length d1);
  Alcotest.(check bool) "same seed, same schedule" true (d1 = d2);
  let other = S.Client.delays { r with S.Client.seed = 1 } in
  Alcotest.(check bool) "different seed, different schedule" true
    (d1 <> other);
  (* every delay is bounded by the policy *)
  List.iter
    (fun d ->
      Alcotest.(check bool) "floor" true (d >= r.S.Client.base_delay_s);
      Alcotest.(check bool) "cap" true (d <= r.S.Client.max_delay_s))
    d1;
  (* decorrelated growth: delay n+1 never exceeds 3x delay n (capped) *)
  let rec growth = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "growth bound" true
        (b <= Float.min r.S.Client.max_delay_s (3.0 *. a) +. 1e-9);
      growth rest
    | _ -> ()
  in
  growth (r.S.Client.base_delay_s :: d1);
  Alcotest.(check (list (float 0.0))) "single attempt, no delays" []
    (S.Client.delays { r with S.Client.attempts = 1 })

(* ---------- cache: torn writes quarantine then repair ---------- *)

let test_torn_write_quarantine_recompute () =
  let store =
    A.Disk_cache.create ~root:(tmp_root ())
      ~faults:(Fi.parse "cache.write=torn@1") ()
  in
  let warned = ref [] in
  A.Disk_cache.set_sink store (fun d -> warned := d.D.code :: !warned);
  (* the torn write "succeeds": the record is on disk *)
  A.Disk_cache.store store ~key:"k" "payload-payload-payload";
  Alcotest.(check bool) "entry file exists" true
    (A.Disk_cache.locate store ~key:"k" <> None);
  (* ... but fails its checksum on load: quarantined, W0702, a miss *)
  Alcotest.(check (option string)) "torn entry misses" None
    (A.Disk_cache.load store ~key:"k");
  Alcotest.(check (list string)) "one W0702" [ "W0702" ] !warned;
  Alcotest.(check bool) "moved to quarantine" true
    (Sys.file_exists
       (Filename.concat
          (A.Disk_cache.quarantine_dir store)
          (Digest.to_hex (Digest.string "k") ^ ".bin")));
  (* the recompute's write-back repairs the slot for good *)
  A.Disk_cache.store store ~key:"k" "payload-payload-payload";
  Alcotest.(check (option string)) "repaired" (Some "payload-payload-payload")
    (A.Disk_cache.load store ~key:"k");
  let s = A.Disk_cache.stats store in
  Alcotest.(check int) "quarantined counted" 1 s.A.Disk_cache.quarantined;
  Alcotest.(check int) "one failure" 1 s.A.Disk_cache.failures

(* ---------- cache: ENOSPC disables writes, gc re-enables ---------- *)

let test_enospc_gc_reenables_writes () =
  let store =
    A.Disk_cache.create ~root:(tmp_root ())
      ~faults:(Fi.parse "cache.write=enospc@1") ()
  in
  let warned = ref [] in
  A.Disk_cache.set_sink store (fun d -> warned := d.D.code :: !warned);
  A.Disk_cache.store store ~key:"a" 1;
  Alcotest.(check (list string)) "one W0703" [ "W0703" ] !warned;
  Alcotest.(check bool) "writes disabled" false
    (A.Disk_cache.writes_enabled store);
  (* while disabled, stores are silent no-ops: warn-once per episode *)
  A.Disk_cache.store store ~key:"b" 2;
  Alcotest.(check (list string)) "still one W0703" [ "W0703" ] !warned;
  Alcotest.(check (option int)) "nothing written" None
    (A.Disk_cache.load store ~key:"b");
  (* gc lifts the disable; the service recovers without a restart *)
  let g = A.Disk_cache.gc store in
  Alcotest.(check bool) "gc re-enabled writes" true
    g.A.Disk_cache.gc_writes_reenabled;
  Alcotest.(check bool) "writes enabled" true
    (A.Disk_cache.writes_enabled store);
  A.Disk_cache.store store ~key:"b" 2;
  Alcotest.(check (option int)) "writes work again" (Some 2)
    (A.Disk_cache.load store ~key:"b");
  (* a second gc has nothing to lift *)
  Alcotest.(check bool) "nothing to re-enable" false
    (A.Disk_cache.gc store).A.Disk_cache.gc_writes_reenabled

(* ---------- cache: LRU eviction order under a byte budget ---------- *)

let test_eviction_lru_order () =
  let root = tmp_root () in
  let store = A.Disk_cache.create ~root () in
  let value = String.make 256 'x' in
  (* the order of stores is the recency order: a is coldest, c is
     hottest *)
  List.iter (fun k -> A.Disk_cache.store store ~key:k value) [ "a"; "b"; "c" ];
  let stored s k = A.Disk_cache.locate s ~key:k <> None in
  let size k =
    match A.Disk_cache.locate store ~key:k with
    | Some (_, _, len) -> len
    | None -> Alcotest.failf "no record for %s" k
  in
  (* a negative budget is refused before any entry is touched *)
  Alcotest.check_raises "negative budget refused"
    (Invalid_argument "Disk_cache.gc: negative max_bytes") (fun () ->
      ignore (A.Disk_cache.gc ~max_bytes:(-1) store));
  Alcotest.(check bool) "negative budget removes no entry" true
    (List.for_all (stored store) [ "a"; "b"; "c" ]);
  (* budget admits exactly one entry: gc must evict a then b, keep c *)
  let g = A.Disk_cache.gc ~max_bytes:(size "c") store in
  Alcotest.(check int) "examined all" 3 g.A.Disk_cache.gc_examined;
  Alcotest.(check int) "evicted two" 2 g.A.Disk_cache.gc_evicted;
  Alcotest.(check int) "none quarantined" 0 g.A.Disk_cache.gc_quarantined;
  Alcotest.(check bool) "coldest gone" false (stored store "a");
  Alcotest.(check bool) "middle gone" false (stored store "b");
  Alcotest.(check bool) "hottest kept" true (stored store "c");
  (* in a bounded store, a write that takes the store over budget evicts
     the older entry *)
  let bounded =
    A.Disk_cache.create ~root:(tmp_root ()) ~max_bytes:(size "c") ()
  in
  A.Disk_cache.store bounded ~key:"old" value;
  A.Disk_cache.store bounded ~key:"new" value;
  (* the write pushed the store over budget: the stale entry is evicted
     and the entry just written is never its own victim *)
  Alcotest.(check bool) "bounded store evicts stale" false
    (stored bounded "old");
  Alcotest.(check (option string)) "fresh entry survives" (Some value)
    (A.Disk_cache.load bounded ~key:"new");
  Alcotest.(check int) "eviction counted" 1
    (A.Disk_cache.stats bounded).A.Disk_cache.evicted

(* the length of the record that stores [value] under a three-letter
   key *)
let record_size value =
  let probe = A.Disk_cache.create ~root:(tmp_root ()) () in
  A.Disk_cache.store probe ~key:"k00" value;
  match A.Disk_cache.locate probe ~key:"k00" with
  | Some (_, _, len) -> len
  | None -> Alcotest.fail "no record"

(* a load stamps recency too: a store bounded to four records compacts
   to two when a fifth arrives, keeping the record just written and the
   most recently used one; store a, b, c and d, load a, store e: a and
   e stay, and without the load's stamp d would stay instead of a *)
let test_eviction_recency_by_load () =
  let value = String.make 256 'x' in
  let size = record_size value in
  let store = A.Disk_cache.create ~root:(tmp_root ()) ~max_bytes:(4 * size) () in
  List.iter
    (fun k -> A.Disk_cache.store store ~key:k value)
    [ "k0a"; "k0b"; "k0c"; "k0d" ];
  Alcotest.(check (option string)) "a loads" (Some value)
    (A.Disk_cache.load store ~key:"k0a");
  A.Disk_cache.store store ~key:"k0e" value;
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " evicted") true
        (A.Disk_cache.locate store ~key:k = None))
    [ "k0b"; "k0c"; "k0d" ];
  List.iter
    (fun k ->
      Alcotest.(check (option string)) (k ^ " still loads") (Some value)
        (A.Disk_cache.load store ~key:k))
    [ "k0a"; "k0e" ];
  Alcotest.(check int) "three evictions" 3
    (A.Disk_cache.stats store).A.Disk_cache.evicted

(* a full bounded store compacts to half its budget, so a run of stores
   pays one compaction per half budget of appends, not one per store.
   Bounded to eight records, the ninth store compacts to four, and so
   does every fifth store after it: 7 compactions in 40 stores, 5
   records evicted by each *)
let test_compaction_amortized () =
  let value = String.make 256 'x' in
  let size = record_size value in
  let max_bytes = 8 * size in
  let root = tmp_root () in
  let store = A.Disk_cache.create ~root ~max_bytes () in
  (* each compaction moves the writer to a fresh segment, so the
     segments the stored records were found in number 1 + compactions *)
  let segments = Hashtbl.create 16 in
  for i = 1 to 40 do
    let key = Printf.sprintf "k%02d" i in
    A.Disk_cache.store store ~key value;
    (match A.Disk_cache.locate store ~key with
    | Some (segment, _, _) -> Hashtbl.replace segments segment ()
    | None -> Alcotest.failf "%s not stored" key);
    let dir =
      Filename.concat root (Printf.sprintf "v%d" A.Disk_cache.format_version)
    in
    let bytes =
      Array.fold_left
        (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
        0 (Sys.readdir dir)
    in
    if bytes > max_bytes then
      Alcotest.failf "%d bytes after store %d, over a %d-byte budget" bytes i
        max_bytes
  done;
  Alcotest.(check int) "seven compactions" 7 (Hashtbl.length segments - 1);
  Alcotest.(check int) "five evicted by each" 35
    (A.Disk_cache.stats store).A.Disk_cache.evicted;
  List.iter
    (fun i ->
      let key = Printf.sprintf "k%02d" i in
      Alcotest.(check (option string)) (key ^ " loads") (Some value)
        (A.Disk_cache.load store ~key))
    [ 36; 37; 38; 39; 40 ]

(* ---------- pool: injected worker death is contained ---------- *)

let test_pool_worker_kill_serial () =
  let pool = P.create ~jobs:1 in
  let results =
    P.map_ordered ~faults:(Fi.parse "pool.worker=kill@2") pool
      (fun x -> x * 2)
      [ 1; 2; 3; 4; 5 ]
  in
  (* hit 2 lands on the second task: its slot is Raised with the
     attributable injection, every other task still completes *)
  (match results with
  | [ P.Value 2; P.Raised (Fi.Injected { site; _ }); P.Value 6; P.Value 8;
      P.Value 10 ] ->
    Alcotest.(check string) "attributed" "pool.worker" site
  | _ -> Alcotest.fail "serial kill not contained to one slot");
  (* a per-task failure is likewise one slot, not the pool *)
  match
    P.map_ordered ~faults:(Fi.parse "pool.task=fail@3") pool
      (fun x -> x + 1)
      [ 10; 20; 30 ]
  with
  | [ P.Value 11; P.Value 21; P.Raised (Fi.Injected _) ] -> ()
  | _ -> Alcotest.fail "task failure not contained"

let test_pool_worker_kill_parallel () =
  let pool = P.create ~jobs:2 in
  let results =
    P.map_ordered ~faults:(Fi.parse "pool.worker=kill@2") pool
      (fun x -> x * x)
      [ 1; 2; 3; 4; 5; 6 ]
  in
  (* which slot dies is a scheduling race, but exactly one does; the
     respawned worker drains the rest *)
  let raised, ok =
    List.partition (function P.Raised _ -> true | _ -> false) results
  in
  Alcotest.(check int) "exactly one death" 1 (List.length raised);
  Alcotest.(check int) "rest completed" 5 (List.length ok);
  List.iteri
    (fun i r ->
      match r with
      | P.Value v -> Alcotest.(check int) "order preserved" ((i + 1) * (i + 1)) v
      | _ -> ())
    results

(* a worker the runtime refuses to spawn (it holds at most 128 domains)
   stops the spawning: the workers already running drain the batch, the
   caller drains it when none started, and the outcomes are the serial
   run's *)
let test_pool_spawn_failure () =
  let f x = if x = 7 then failwith "seven" else x * 3 in
  let outcomes plan jobs =
    List.map
      (function
        | P.Value v -> string_of_int v
        | P.Raised e -> Printexc.to_string e)
      (P.map_ordered ~faults:plan (P.create ~jobs) f (List.init 20 Fun.id))
  in
  let serial = outcomes Fi.none 1 in
  List.iter
    (fun spec ->
      let plan = Fi.parse spec in
      Alcotest.(check (list string)) (spec ^ ": serial outcomes") serial
        (outcomes plan 4);
      Alcotest.(check (list (pair string int))) (spec ^ ": one refused spawn")
        [ ("pool.spawn", 1) ] (Fi.injected plan))
    [ "pool.spawn=fail@2"; "pool.spawn=fail@1+" ]

(* ---------- engine: a killed sweep resumes without recompute ---------- *)

let demo_src =
  {|module f1 (input [7:0] a, output [7:0] y); assign y = a + 8'h1; endmodule
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

let sweep_points () =
  List.map
    (fun n ->
      let cfg = { demo_cfg with C.Flow_config.max_fabric_size = n } in
      ( Printf.sprintf "p%d" n,
        A.Flow.request ~config:cfg
          (A.Flow.Text { text = demo_src; file = Some "demo.v" }) ))
    [ 10; 11; 12; 13 ]

let test_sweep_resume_after_kill () =
  let root = tmp_root () in
  (* the process dies after completing 2 of 4 points *)
  let doomed =
    A.Engine.create ~cache_dir:root
      ~faults:(Fi.parse "engine.sweep_point=fail@3") ()
  in
  (match A.Engine.run_sweep doomed (sweep_points ()) with
  | _ -> Alcotest.fail "injected sweep death did not fire"
  | exception Fi.Injected { site; _ } ->
    Alcotest.(check string) "died at the sweep site" "engine.sweep_point" site);
  (* a new process over the same store: the finished points come back
     from checkpoints, only the unfinished ones run *)
  let fresh () = A.Engine.create ~cache_dir:root ~faults:Fi.none () in
  let rows = A.Engine.run_sweep (fresh ()) (sweep_points ()) in
  Alcotest.(check (list (pair string bool))) "2 resumed, 2 computed"
    [ ("p10", true); ("p11", true); ("p12", false); ("p13", false) ]
    (List.map (fun sp -> (sp.A.Engine.sp_name, sp.A.Engine.sp_resumed)) rows);
  List.iter
    (fun sp ->
      Alcotest.(check bool)
        (sp.A.Engine.sp_name ^ " feasible") true sp.A.Engine.sp_feasible)
    rows;
  (* a third run resumes everything: zero recomputation *)
  let rows = A.Engine.run_sweep (fresh ()) (sweep_points ()) in
  Alcotest.(check int) "all resumed" 4
    (List.length (List.filter (fun sp -> sp.A.Engine.sp_resumed) rows));
  (* resume off: every point recomputes even with checkpoints on disk *)
  let rows = A.Engine.run_sweep ~resume:false (fresh ()) (sweep_points ()) in
  Alcotest.(check int) "no-resume recomputes" 0
    (List.length (List.filter (fun sp -> sp.A.Engine.sp_resumed) rows));
  (* a changed config is a different point: its checkpoint must not be
     served for the new work *)
  let changed =
    List.map
      (fun (name, _) ->
        let cfg = { demo_cfg with C.Flow_config.max_efpgas = 1 } in
        ( name,
          A.Flow.request ~config:cfg
            (A.Flow.Text { text = demo_src; file = Some "demo.v" }) ))
      (sweep_points ())
  in
  let rows = A.Engine.run_sweep (fresh ()) changed in
  Alcotest.(check int) "changed config never resumes" 0
    (List.length (List.filter (fun sp -> sp.A.Engine.sp_resumed) rows))

(* ---------- fd hygiene ---------- *)

let fd_count () = Array.length (Sys.readdir "/proc/self/fd")

let test_client_fd_no_leak_on_failure () =
  if not (Sys.file_exists "/proc/self/fd") then ()
  else begin
    let missing = Filename.concat (Filename.get_temp_dir_name ()) "absent.sock" in
    let before = fd_count () in
    for _ = 1 to 20 do
      match S.Client.one_shot ~socket:missing "x" with
      | _ -> Alcotest.fail "connect to a missing socket succeeded"
      | exception S.Client.Connection_error _ -> ()
    done;
    Alcotest.(check int) "no fd left behind by failed connects" before
      (fd_count ());
    (* an injected failure between socket() and the channel wrap must
       not leak the descriptor either *)
    let faults = Fi.parse "sock.connect=fail@1+" in
    for _ = 1 to 20 do
      match S.Client.one_shot ~faults ~socket:missing "x" with
      | _ -> Alcotest.fail "injected connect failure did not fire"
      | exception S.Client.Connection_error _ -> ()
    done;
    Alcotest.(check int) "no fd left behind by injected failures" before
      (fd_count ())
  end

(* ---------- end to end: the server under a hostile plan ---------- *)

let base_yaml =
  Y.parse
    {|max_io_pins: 40
max_efpgas: 2
selected_outputs:
  - out1
  - out2
fabric:
  min_size: 2
  max_size: 12
jobs: 1|}

let tmp_socket () =
  let f = Filename.temp_file "alice_flt" ".sock" in
  Sys.remove f;
  f

let retry =
  { S.Client.default_retry with S.Client.attempts = 6; base_delay_s = 0.02 }

let test_server_self_heals_under_plan () =
  (* one plan shared by the server's IO boundaries and the engine's
     cache: a transient read, a worker death, a torn entry, then a full
     disk — every fault the tentpole promises to contain at once *)
  let plan =
    Fi.parse
      "sock.read=eintr@1;server.worker=kill@2;cache.write=torn@1;cache.write=enospc@2"
  in
  let root = tmp_root () in
  let engine = A.Engine.create ~cache_dir:root ~faults:plan () in
  let socket = tmp_socket () in
  let cfg =
    { (S.Server.default_config ~socket_path:socket) with
      S.Server.max_in_flight = 2; max_queue = 4; base = base_yaml;
      idle_timeout_s = 20.0; faults = plan }
  in
  let t = S.Server.start ~engine cfg in
  Fun.protect
    ~finally:(fun () -> S.Server.stop t; S.Server.wait t)
    (fun () ->
      let rpc line = S.Client.one_shot ~retry ~socket line in
      (* what the library computes is the contract under faults too *)
      let reference =
        let config = C.Flow_config.of_doc base_yaml in
        let flow =
          A.Flow.run_request
            (A.Flow.request ~config
               (A.Flow.Text { text = demo_src; file = None }))
        in
        match A.Flow.redact flow with
        | Some r -> r.A.Redact.verilog
        | None -> Alcotest.fail "reference flow infeasible"
      in
      (* request 1 rides out the injected EINTR on the server's read *)
      let pong = J.parse (rpc (S.Protocol.ping_request ())) in
      Alcotest.(check bool) "ping ok through EINTR" true (J.get_bool pong "ok");
      (* request 2's worker is killed mid-handling: the retrying client
         reconnects and the respawned slot answers correctly while the
         cache degrades under the torn write and the full disk *)
      let before = if Sys.file_exists "/proc/self/fd" then fd_count () else 0 in
      let redact () =
        let resp =
          J.parse
            (rpc (S.Protocol.redact_request (S.Protocol.Inline demo_src)))
        in
        Alcotest.(check bool) "redact ok" true (J.get_bool resp "ok");
        Alcotest.(check string) "byte-identical under faults" reference
          (J.get_string resp "verilog")
      in
      redact ();
      redact ();
      (* the faults all fired and were all contained *)
      let stats = J.parse (rpc (S.Protocol.stats_request ())) in
      (match J.find stats "workers" with
      | Some w ->
        Alcotest.(check int) "crash counted" 1 (J.get_int w "crashed");
        Alcotest.(check int) "roster intact" 2 (J.get_int w "configured")
      | None -> Alcotest.fail "no workers block");
      (match J.find stats "faults" with
      | Some f -> (
        match J.find f "injected" with
        | Some inj ->
          Alcotest.(check int) "worker kill recorded" 1
            (J.get_int inj "server.worker");
          Alcotest.(check int) "both write faults recorded" 2
            (J.get_int inj "cache.write")
        | None -> Alcotest.fail "no injected counts")
      | None -> Alcotest.fail "no faults block");
      (* cache-gc quarantines the torn entry and lifts the ENOSPC
         write-disable — the long-lived server repairs itself *)
      let gc = J.parse (rpc (S.Protocol.cache_gc_request ())) in
      Alcotest.(check bool) "gc ok" true (J.get_bool gc "ok");
      Alcotest.(check bool) "torn entry quarantined" true
        (J.get_int gc "quarantined" >= 1);
      Alcotest.(check bool) "writes re-enabled" true
        (J.get_bool gc "writes_reenabled");
      (* service still healthy after repair *)
      redact ();
      if Sys.file_exists "/proc/self/fd" then begin
        (* connections from killed workers and retries are all closed:
           give the server's side a beat to finish closing, then the
           process fd table must be back to (about) where it started *)
        Unix.sleepf 0.3;
        Alcotest.(check bool) "no fd leak across faulted requests" true
          (fd_count () <= before + 2)
      end)

let tests =
  [ Alcotest.test_case "plan parse and round trip" `Quick
      test_parse_round_trip;
    Alcotest.test_case "trigger semantics" `Quick test_trigger_semantics;
    Alcotest.test_case "hit default actions" `Quick test_hit_default_actions;
    Alcotest.test_case "backoff schedule deterministic" `Quick
      test_backoff_deterministic;
    Alcotest.test_case "torn write quarantined then repaired" `Quick
      test_torn_write_quarantine_recompute;
    Alcotest.test_case "enospc: gc re-enables writes" `Quick
      test_enospc_gc_reenables_writes;
    Alcotest.test_case "lru eviction order" `Quick test_eviction_lru_order;
    Alcotest.test_case "lru recency by load" `Quick
      test_eviction_recency_by_load;
    Alcotest.test_case "bounded store compacts to half its budget" `Quick
      test_compaction_amortized;
    Alcotest.test_case "pool kill contained (serial)" `Quick
      test_pool_worker_kill_serial;
    Alcotest.test_case "pool kill contained (parallel)" `Quick
      test_pool_worker_kill_parallel;
    Alcotest.test_case "pool spawn failure drains the batch" `Quick
      test_pool_spawn_failure;
    Alcotest.test_case "sweep resumes after kill" `Quick
      test_sweep_resume_after_kill;
    Alcotest.test_case "client fds never leak" `Quick
      test_client_fd_no_leak_on_failure;
    Alcotest.test_case "server self-heals under fault plan" `Quick
      test_server_self_heals_under_plan ]
