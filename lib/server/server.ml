(** Server core (see the interface for the architecture). One acceptor
    thread owns admission control, multiplexes every listener and
    classifies admitted connections into the two priority lanes;
    [max_in_flight] worker threads own connections (one reserved for
    the cheap lane when there are at least two); all of them share one
    engine, one metrics registry and one mutex/condition pair around
    the hand-off lanes.

    Shutdown is signal-safe: {!stop} only flips an atomic flag and
    pokes each listener with a throwaway connection, so it may run
    inside a signal handler or on a worker thread that already holds no
    lock; the acceptor notices the flag, marks the server stopping
    under the lock and broadcasts the workers awake. *)

module A = Alice
module C = Alice_config
module D = Alice_diag.Diag
module F = Alice_fabric
module J = Alice_config.Json_lite
module V = Alice_verilog
module Y = Alice_config.Yaml_lite
module P = Protocol
module Fi = Alice_fault.Fault

type config = {
  listen : Endpoint.t list;
  max_in_flight : int;
  max_queue : int;
  base : Y.t;
  jobs : int option;
  deadline_s : float option;
  idle_timeout_s : float;
  faults : Fi.t;
}

let default_config ~socket_path =
  { listen = [ Endpoint.Unix_path socket_path ]; max_in_flight = 4;
    max_queue = 16; base = Y.Null; jobs = None; deadline_s = None;
    idle_timeout_s = 30.0; faults = Fi.global () }

type t = {
  cfg : config;
  engine : A.Engine.t;
  metrics : Metrics.t;
  listeners : (Unix.file_descr * Endpoint.t) list;  (* effective endpoints *)
  mu : Mutex.t;
  cv : Condition.t;
  cheap_pending : Unix.file_descr Queue.t;
  heavy_pending : Unix.file_descr Queue.t;
  mutable unclassified : int;  (* connections the acceptor still holds *)
  mutable active : int;  (* workers currently handling a connection *)
  mutable stopping : bool;  (* guarded by [mu]; set only by the acceptor *)
  stop_requested : bool Atomic.t;  (* settable from signal handlers *)
  mutable acceptor : Thread.t option;
  mutable workers : Thread.t list;
  mutable waited : bool;
}

let metrics t = t.metrics

let engine t = t.engine

let endpoints t = List.map snd t.listeners

(* a streamed row write failed (client hung up, or an injected
   ["sock.stream"] fault): the connection is dead mid-response, so this
   must escape request execution — {!respond}'s error wrapper re-raises
   it — and be absorbed as a dropped link, never turned into an error
   line nobody can receive *)
exception Stream_failed of exn

(* reserved per-op metrics key for requests that never parsed far
   enough to have an operation *)
let invalid_op = "invalid"

(* ---------- request execution ---------- *)

let flow_source : P.source -> A.Flow.source = function
  | P.Inline text -> A.Flow.Text { text; file = None }
  | P.Path path ->
    A.Flow.Text
      { text = In_channel.with_open_bin path In_channel.input_all;
        file = Some path }

(* the request's inline config over the server's base document, plus
   the operator overrides: a forced [jobs], and the server deadline when
   the request sets none *)
let effective_config t (req_cfg : Y.t) : C.Flow_config.t =
  let cfg = C.Flow_config.of_yaml (Y.merge t.cfg.base req_cfg) in
  let cfg =
    match t.cfg.jobs with
    | None -> cfg
    | Some j -> { cfg with C.Flow_config.jobs = j }
  in
  match (t.cfg.deadline_s, cfg.C.Flow_config.characterize_deadline_s) with
  | Some d, None -> { cfg with C.Flow_config.characterize_deadline_s = Some d }
  | _ -> cfg

let run_flow t (req_cfg : Y.t) (source : P.source) : A.Flow.t =
  let flow =
    A.Engine.run t.engine
      (A.Flow.request ~config:(effective_config t req_cfg)
         ~diags:(D.Collector.create ()) (flow_source source))
  in
  let s = flow.A.Flow.char_stats in
  Metrics.record_cache_run t.metrics ~hits:s.A.Characterize.cache_hits
    ~computed:s.A.Characterize.computed ~skipped:s.A.Characterize.skipped;
  let a = flow.A.Flow.selection.A.Selection.attack in
  Metrics.record_attack_run t.metrics ~run:a.A.Engine.Scorer.attacks_run
    ~cached:a.A.Engine.Scorer.attacks_cached
    ~inconclusive:a.A.Engine.Scorer.attacks_inconclusive;
  flow

let diags_field (diags : D.t list) : (string * J.t) list =
  match diags with
  | [] -> []
  | ds -> [ ("diags", J.List (List.map P.json_of_diag ds)) ]

(* the fields every flow-running response reports after its own *)
let flow_fields (flow : A.Flow.t) : (string * J.t) list =
  let s = flow.A.Flow.char_stats and times = flow.A.Flow.times in
  [ ( "char_stats",
      J.Obj
        [ ("clusters", J.Int s.A.Characterize.clusters);
          ("unique", J.Int s.A.Characterize.unique);
          ("hits", J.Int s.A.Characterize.cache_hits);
          ("computed", J.Int s.A.Characterize.computed);
          ("skipped", J.Int s.A.Characterize.skipped) ] );
    ( "times",
      J.Obj
        [ ("filtering_s", J.Float times.A.Flow.filtering_s);
          ("clustering_s", J.Float times.A.Flow.clustering_s);
          ("selection_s", J.Float times.A.Flow.selection_s) ] ) ]

(* measured-selection attack accounting and per-candidate verdicts *)
let attack_field ~(minor : int) (flow : A.Flow.t) : string * J.t =
  let a = flow.A.Flow.selection.A.Selection.attack in
  let verdict (r : A.Report.verdict_row) =
    J.Obj
      [ ("cluster", J.String r.A.Report.vr_cluster);
        ("fabric", J.String r.A.Report.vr_fabric);
        ("status", J.String r.A.Report.vr_status);
        ("dips", J.Int r.A.Report.vr_dips);
        ("conflicts", J.Int r.A.Report.vr_conflicts);
        ("reused", J.Int r.A.Report.vr_reused) ]
  in
  ( "attack",
    J.Obj
      (P.gate ~minor
         [ ("run", J.Int a.A.Engine.Scorer.attacks_run);
           ("cached", J.Int a.A.Engine.Scorer.attacks_cached);
           ("inconclusive", J.Int a.A.Engine.Scorer.attacks_inconclusive);
           ("reused", J.Int a.A.Engine.Scorer.attacks_reused);
           ("verdicts", J.List (List.map verdict (A.Report.verdict_rows flow)))
         ]) )

let row_fields ~(minor : int) (sp : A.Engine.sweep_point) :
    (string * J.t) list =
  P.gate ~minor
    [ ("name", J.String sp.A.Engine.sp_name);
      ("feasible", J.Bool sp.A.Engine.sp_feasible);
      ( "fabrics",
        match sp.A.Engine.sp_fabrics with
        | Some f -> J.String f
        | None -> J.Null );
      ("hits", J.Int sp.A.Engine.sp_hits);
      ("computed", J.Int sp.A.Engine.sp_computed);
      ("skipped", J.Int sp.A.Engine.sp_skipped);
      ("attacks_run", J.Int sp.A.Engine.sp_attacks_run);
      ("attacks_cached", J.Int sp.A.Engine.sp_attacks_cached);
      ("attacks_inconclusive", J.Int sp.A.Engine.sp_attacks_inconclusive);
      ( "metrics",
        match sp.A.Engine.sp_metrics with
        | None -> J.Null
        | Some m ->
          J.Obj
            [ ("area_um2", J.Float m.A.Engine.pm_area_um2);
              ("timing_ns", J.Float m.A.Engine.pm_timing_ns);
              ("security", J.Float m.A.Engine.pm_security);
              ( "security_mode",
                J.String
                  (C.Flow_config.score_mode_to_string
                     m.A.Engine.pm_security_mode) ) ] );
      ("resumed", J.Bool sp.A.Engine.sp_resumed) ]

(* The one row path of sweep and advise. [run] drives the points through
   the [on_point] observer, which Engine.run_sweep calls after each
   point's checkpoint write. A computed point is recorded in the metrics
   (a resumed one did no cache or attack work in this process); when the
   request negotiated streaming its row goes out as its own frame at
   once, so a client that hangs up mid-sweep wastes at most the point in
   flight. Returns [run]'s result and the points, in order. *)
let emit_rows t ~(id : J.t) ~(minor : int) ~(emit : string -> unit)
    (op : P.op) (run : (A.Engine.sweep_point -> unit) -> 'a) :
    'a * A.Engine.sweep_point list =
  let points = ref [] in
  let on_point (sp : A.Engine.sweep_point) =
    if not sp.A.Engine.sp_resumed then begin
      Metrics.record_cache_run t.metrics ~hits:sp.A.Engine.sp_hits
        ~computed:sp.A.Engine.sp_computed ~skipped:sp.A.Engine.sp_skipped;
      Metrics.record_attack_run t.metrics ~run:sp.A.Engine.sp_attacks_run
        ~cached:sp.A.Engine.sp_attacks_cached
        ~inconclusive:sp.A.Engine.sp_attacks_inconclusive
    end;
    if P.streams ~minor op then
      emit
        (P.event_response ~id ~op:(P.op_name op) ~event:"row"
           (row_fields ~minor sp @ diags_field (A.Engine.point_diags sp)));
    points := sp :: !points
  in
  let result = run on_point in
  (result, List.rev !points)

(* The line concluding a sweep or advise: after streamed rows, a done
   frame with the op's [streamed] fields and the resumed count; else the
   buffered line with every row, the op's [buffered] fields and the
   points' tagged diagnostics. *)
let conclude ~(id : J.t) ~(minor : int) (op : P.op)
    (points : A.Engine.sweep_point list) ~streamed ~buffered : string =
  let op_name = P.op_name op in
  if P.streams ~minor op then
    let resumed = List.filter (fun sp -> sp.A.Engine.sp_resumed) points in
    P.event_response ~id ~op:op_name ~event:"done"
      (streamed @ [ ("resumed", J.Int (List.length resumed)) ])
  else
    let rows = List.map (fun sp -> J.Obj (row_fields ~minor sp)) points in
    P.ok_response ~id ~op:op_name
      ((("rows", J.List rows) :: buffered)
      @ diags_field (List.concat_map A.Engine.point_diags points))

let stats_fields t : (string * J.t) list =
  let s = Metrics.snapshot t.metrics in
  let cheap_q, heavy_q, unclassified, active =
    Mutex.lock t.mu;
    let r =
      ( Queue.length t.cheap_pending, Queue.length t.heavy_pending,
        t.unclassified, t.active )
    in
    Mutex.unlock t.mu;
    r
  in
  let ms x = J.Float (1000.0 *. x) in
  let per_op =
    List.map
      (fun (op, (c : Metrics.op_counters)) ->
        ( op,
          J.Obj
            [ ("received", J.Int c.Metrics.received);
              ("succeeded", J.Int c.Metrics.succeeded);
              ("failed", J.Int c.Metrics.failed) ] ))
      s.Metrics.per_op
  in
  let buckets =
    Array.to_list s.Metrics.latency_buckets
    |> List.filter (fun (_, n) -> n > 0)
    |> List.map (fun (bound, n) ->
           J.Obj
             [ ( "le_ms",
                 if Float.is_finite bound then J.Float (1000.0 *. bound)
                 else J.Null );
               ("count", J.Int n) ])
  in
  let cache =
    [ ("hits", J.Int s.Metrics.cache_hits);
      ("computed", J.Int s.Metrics.cache_computed);
      ("skipped", J.Int s.Metrics.cache_skipped);
      ("warnings", J.Int s.Metrics.cache_warnings) ]
    @ (match A.Engine.disk_stats t.engine with
      | None -> []
      | Some d ->
        [ ( "disk",
            J.Obj
              [ ("hits", J.Int d.A.Disk_cache.disk_hits);
                ("misses", J.Int d.A.Disk_cache.disk_misses);
                ("stores", J.Int d.A.Disk_cache.stores);
                ("failures", J.Int d.A.Disk_cache.failures);
                ("quarantined", J.Int d.A.Disk_cache.quarantined);
                ("evicted", J.Int d.A.Disk_cache.evicted) ] ) ])
    @
    match A.Engine.cache_root t.engine with
    | None -> []
    | Some root -> [ ("root", J.String root) ]
  in
  let faults =
    if Fi.is_none t.cfg.faults then []
    else
      [ ( "faults",
          J.Obj
            [ ("plan", J.String (Fi.to_string t.cfg.faults));
              ( "injected",
                J.Obj
                  (List.map
                     (fun (site, n) -> (site, J.Int n))
                     (Fi.injected t.cfg.faults)) ) ] ) ]
  in
  [ ("uptime_s", J.Float s.Metrics.uptime_s);
    ("in_flight", J.Int active);
    ( "queued",
      J.Obj
        [ ("cheap", J.Int cheap_q);
          ("heavy", J.Int heavy_q);
          ("unclassified", J.Int unclassified);
          ("total", J.Int (cheap_q + heavy_q + unclassified)) ] );
    ( "workers",
      J.Obj
        [ ("configured", J.Int t.cfg.max_in_flight);
          ("reserved_cheap", J.Int (if t.cfg.max_in_flight > 1 then 1 else 0));
          ("crashed", J.Int s.Metrics.worker_crashes) ] );
    ("requests", J.Obj per_op);
    ( "rejected",
      J.Obj
        [ ("busy", J.Int s.Metrics.rejected_busy);
          ("draining", J.Int s.Metrics.rejected_draining) ] );
    ( "latency",
      J.Obj
        [ ("completed", J.Int s.Metrics.completed);
          ( "mean_ms",
            if s.Metrics.completed = 0 then J.Null
            else
              ms (s.Metrics.latency_sum_s /. float_of_int s.Metrics.completed)
          );
          ("max_ms", ms s.Metrics.latency_max_s);
          ("p50_ms", ms (Metrics.quantile s 0.50));
          ("p90_ms", ms (Metrics.quantile s 0.90));
          ("p95_ms", ms (Metrics.quantile s 0.95));
          ("p99_ms", ms (Metrics.quantile s 0.99));
          ("buckets", J.List buckets) ] );
    ("cache", J.Obj cache);
    ( "attacks",
      J.Obj
        [ ("run", J.Int s.Metrics.attacks_run);
          ("cached", J.Int s.Metrics.attacks_cached);
          ("inconclusive", J.Int s.Metrics.attacks_inconclusive) ] ) ]
  @ faults

let characterize_row (c : A.Characterize.characterization) : J.t =
  let outcome, fabric =
    match c.A.Characterize.outcome with
    | A.Characterize.Implemented impl ->
      ( "implemented",
        J.String (F.Fabric.size_label impl.F.Size_search.fabric) )
    | A.Characterize.Infeasible _ -> ("infeasible", J.Null)
    | A.Characterize.Failed _ -> ("failed", J.Null)
    | A.Characterize.Skipped _ -> ("skipped", J.Null)
  in
  let cl = c.A.Characterize.cluster in
  J.Obj
    [ ("key", J.String cl.A.Clustering.key);
      ( "members",
        J.List
          (List.map
             (fun (m : V.Design.tree) -> J.String m.V.Design.module_name)
             cl.A.Clustering.members) );
      ("io_pins", J.Int cl.A.Clustering.io_pins);
      ("outcome", J.String outcome);
      ("fabric", fabric) ]

(* One request, one response line (plus any streamed row frames sent
   through [emit]) and whether it succeeded. Exceptions escape to
   {!respond}, the one place that turns them into error lines. *)
let execute t ~(id : J.t) ~(minor : int) ~(emit : string -> unit) (op : P.op)
    : string * bool =
  let name = P.op_name op in
  let ok fields = (P.ok_response ~id ~op:name fields, true) in
  match op with
  | P.Ping ->
    ok
      [ ("server", J.String "alice");
        ("protocol", J.Int P.version);
        ("minor", J.Int P.minor);
        ("uptime_s", J.Float (Metrics.snapshot t.metrics).Metrics.uptime_s) ]
  | P.Stats -> ok (stats_fields t)
  | P.Shutdown -> ok [ ("draining", J.Bool true) ]
  | P.Redact { source; config; view } -> (
    let flow = run_flow t config source in
    match A.Flow.redact ~view flow with
    | None ->
      ( P.error_response ~id ~kind:"infeasible" ~op:name
          ~diags:flow.A.Flow.diags
          (D.error ~code:"E0801"
             "no feasible redaction under this configuration"),
        false )
    | Some r ->
      let site (s : A.Redact.efpga_site) =
        J.Obj
          [ ("efpga", J.String s.A.Redact.efpga_name);
            ("insertion_point", J.String s.A.Redact.insertion_point);
            ("members", J.Int (List.length s.A.Redact.members));
            ("gpio_in", J.Int s.A.Redact.gpio_in_width);
            ("gpio_out", J.Int s.A.Redact.gpio_out_width) ]
      in
      ok
        (P.gate ~minor
           ([ ("verilog", J.String r.A.Redact.verilog);
              ("sites", J.List (List.map site r.A.Redact.sites));
              ( "fabrics",
                match A.Engine.solution_fabrics flow with
                | Some s -> J.String s
                | None -> J.Null ) ]
           @ flow_fields flow
           @ (attack_field ~minor flow :: diags_field flow.A.Flow.diags))))
  | P.Characterize { source; config } ->
    let flow = run_flow t config source in
    let clusters = List.map characterize_row flow.A.Flow.characterized in
    ok
      ((("clusters", J.List clusters) :: flow_fields flow)
      @ diags_field flow.A.Flow.diags)
  | P.Sweep { source; base; entries; _ } ->
    let src = flow_source source in
    let requests =
      List.mapi
        (fun i entry ->
          let name =
            Y.get_string ~default:(Printf.sprintf "cfg%d" (i + 1)) entry "name"
          in
          let cfg = effective_config t (Y.merge base entry) in
          (name, A.Flow.request ~config:cfg ~diags:(D.Collector.create ()) src))
        entries
    in
    let (), points =
      emit_rows t ~id ~minor ~emit op (fun on_point ->
          ignore (A.Engine.run_sweep ~on_point t.engine requests))
    in
    let feasible = List.filter (fun sp -> sp.A.Engine.sp_feasible) points in
    ( conclude ~id ~minor op points ~buffered:[]
        ~streamed:
          [ ("points", J.Int (List.length points));
            ("feasible", J.Int (List.length feasible)) ],
      true )
  | P.Advise { source; base; constraints; _ } ->
    let src = flow_source source in
    let plan =
      A.Advisor.plan_of_source ~base:(effective_config t base) ~constraints src
    in
    let report, points =
      emit_rows t ~id ~minor ~emit op (fun on_point ->
          A.Advisor.run ~on_point t.engine ~source:src plan)
    in
    let summary =
      [ ("candidates", J.Int (List.length report.A.Advisor.r_entries));
        ("deduped", J.Int report.A.Advisor.r_deduped);
        ( "front",
          J.List (List.map A.Advisor.json_of_entry report.A.Advisor.r_front) )
      ]
    in
    (conclude ~id ~minor op points ~streamed:summary ~buffered:summary, true)
  | P.CacheGc { max_bytes } -> (
    match A.Engine.gc ?max_bytes t.engine with
    | None ->
      ( P.error_response ~id ~kind:"no_cache" ~op:name
          (D.error ~code:"E1006"
             "cache-gc: this server runs with caching disabled"),
        false )
    | Some g ->
      ok
        [ ("examined", J.Int g.A.Disk_cache.gc_examined);
          ("quarantined", J.Int g.A.Disk_cache.gc_quarantined);
          ("evicted", J.Int g.A.Disk_cache.gc_evicted);
          ("freed_bytes", J.Int g.A.Disk_cache.gc_freed_bytes);
          ("live_bytes", J.Int g.A.Disk_cache.gc_live_bytes);
          ("writes_reenabled", J.Bool g.A.Disk_cache.gc_writes_reenabled) ])

(* ---------- connection handling ---------- *)

let respond t ~(emit : string -> unit) (line : string) :
    string * [ `Continue | `Stop ] =
  let t0 = Unix.gettimeofday () in
  let op_name, (resp, ok), action =
    match P.parse_request line with
    | exception P.Bad_request { kind; diag } ->
      (* malformed traffic must be visible in [stats]: a misbehaving
         client spamming garbage is exactly when the operator looks *)
      Metrics.record_received t.metrics ~op:invalid_op;
      (invalid_op, (P.error_response ~id:J.Null ~kind diag, false), `Continue)
    | { P.id; minor; op } ->
      let name = P.op_name op in
      Metrics.record_received t.metrics ~op:name;
      let result =
        match execute t ~id ~minor ~emit op with
        | result -> result
        | exception ((Out_of_memory | Stack_overflow | Stream_failed _) as e)
          ->
          raise e
        | exception e ->
          (* a recognized input problem keeps its layer code, the rest is
             internal; after streamed rows this line is still
             well-formed — a non-row frame concludes the exchange on the
             client side *)
          let diag =
            match A.Flow.classify_exn e with Some d -> d | None -> D.of_exn e
          in
          (P.error_response ~id ~kind:"failed" ~op:name diag, false)
      in
      (name, result, match op with P.Shutdown -> `Stop | _ -> `Continue)
  in
  Metrics.record_completed t.metrics ~op:op_name ~ok
    ~seconds:(Unix.gettimeofday () -. t0);
  (resp, action)

(* wake the acceptor out of [select] with a throwaway connection to
   each listener; nothing here blocks or takes a lock, so it is
   signal-handler safe *)
let poke_listeners t : unit =
  List.iter (fun (_, ep) -> Endpoint.poke ep) t.listeners

(* [input_line] with a bounded retry on transient interruptions
   (EINTR/EAGAIN, injected or real): the read is re-armed instead of
   the connection being dropped. [None] is EOF (or an injected hard
   read failure, which behaves as a dead link). *)
let read_request_line ~(faults : Fi.t) (ic : in_channel) : string option =
  let rec go attempts =
    match
      (match Fi.check faults "sock.read" with
      | Some Fi.Eintr -> raise (Unix.Unix_error (Unix.EINTR, "read", ""))
      | Some Fi.Eagain -> raise (Unix.Unix_error (Unix.EAGAIN, "read", ""))
      | Some (Fi.Delay s) -> Unix.sleepf s
      | Some _ -> raise End_of_file
      | None -> ());
      input_line ic
    with
    | line -> Some line
    | exception End_of_file -> None
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _)
      when attempts < 5 ->
      go (attempts + 1)
  in
  go 0

(* Serve one connection: requests are processed in order until EOF, an
   idle timeout, a shutdown request, or the server starting to drain
   (the response to the current request is always sent first). The fd
   is closed exactly once, through the out channel, on every path out —
   including a crash escaping to the worker supervision below. Ordinary
   connection trouble (timeout, client reset, broken pipe, a stream
   that died mid-sweep) is absorbed here; an injected worker kill and
   runaway resource exhaustion escape on purpose, to exercise (or
   reach) the supervisor. *)
let handle_connection t (fd : Unix.file_descr) : unit =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.idle_timeout_s
   with Unix.Unix_error _ -> ());
  let faults = t.cfg.faults in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (* streamed row frames share the worker's output channel; any
     trouble — injected or a vanished client — surfaces as
     [Stream_failed], never as a worker-killing exception *)
  let emit line =
    (match Fi.check faults "sock.stream" with
    | Some (Fi.Delay s) -> Unix.sleepf s
    | Some action ->
      raise (Stream_failed (Fi.Injected { site = "sock.stream"; action }))
    | None -> ());
    try
      output_string oc line;
      output_char oc '\n';
      flush oc
    with e -> raise (Stream_failed e)
  in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  let continue = ref true in
  try
    while !continue do
      match read_request_line ~faults ic with
      | None -> continue := false
      | Some line when String.trim line = "" -> ()
      | Some line ->
        Fi.hit faults "server.worker";
        let resp, action = respond t ~emit line in
        (match Fi.check faults "sock.write" with
        | Some (Fi.Delay s) -> Unix.sleepf s
        | Some _ ->
          (* injected send failure: the response is lost and the link
             dropped — recovery belongs to the client's retry policy *)
          raise Exit
        | None -> ());
        output_string oc resp;
        output_char oc '\n';
        flush oc;
        (match action with
        | `Stop ->
          continue := false;
          if not (Atomic.exchange t.stop_requested true) then
            poke_listeners t
        | `Continue ->
          if Atomic.get t.stop_requested then continue := false)
    done
  with
  | (Fi.Injected _ | Out_of_memory | Stack_overflow) as e -> raise e
  | _ ->
    (* read timeout, client reset, broken pipe, dead stream: drop the
       link *)
    ()

(* ---------- threads ---------- *)

(* lane discipline: everyone serves the cheap lane first (cheap ops are
   microseconds, so they cannot crowd out heavy progress); the reserved
   worker serves nothing else, so there is always capacity for health
   checks while every other worker grinds through sweeps *)
let pop_connection t ~(reserved : bool) : Unix.file_descr option =
  if not (Queue.is_empty t.cheap_pending) then
    Some (Queue.pop t.cheap_pending)
  else if (not reserved) && not (Queue.is_empty t.heavy_pending) then
    Some (Queue.pop t.heavy_pending)
  else None

let rec worker_loop t ~(reserved : bool) () =
  let rec loop () =
    Mutex.lock t.mu;
    let rec await () =
      match pop_connection t ~reserved with
      | Some fd -> Some fd
      | None ->
        if t.stopping then None
        else begin
          Condition.wait t.cv t.mu;
          await ()
        end
    in
    match await () with
    | None -> Mutex.unlock t.mu (* draining and this lane is empty: done *)
    | Some fd ->
      t.active <- t.active + 1;
      Mutex.unlock t.mu;
      let crash =
        match handle_connection t fd with
        | () -> None
        | exception e -> Some e
      in
      (* the fd is already closed (handle_connection's protection) and
         [active] is balanced on every path, so a crash can never leak
         a descriptor or a slot of admission-control budget *)
      Mutex.lock t.mu;
      t.active <- t.active - 1;
      Mutex.unlock t.mu;
      (match crash with
      | None -> loop ()
      | Some e ->
        (* Worker supervision: whatever escaped handle_connection's
           containment poisoned this thread's trustworthiness, so the
           slot is retired and a fresh worker hired in its place — with
           the same lane reservation (the connection died with its fd;
           the client sees a dropped link and retries). During a drain
           the slot is simply retired. *)
        Metrics.record_worker_crash t.metrics;
        Format.eprintf
          "alice-serve: [E1005] worker crashed handling a connection: %s; \
           respawning slot@."
          (Printexc.to_string e);
        Mutex.lock t.mu;
        if not t.stopping then
          t.workers <- Thread.create (worker_loop t ~reserved) () :: t.workers;
        Mutex.unlock t.mu)
  in
  loop ()

(* Refuse a connection before reading anything from it: the error line
   is small enough to fit any socket buffer, so this cannot block a
   worker (it runs on the acceptor). *)
let refuse (fd : Unix.file_descr) (response : string) : unit =
  (try Unix.clear_nonblock fd with Unix.Unix_error _ -> ());
  try
    let oc = Unix.out_channel_of_descr fd in
    output_string oc response;
    output_char oc '\n';
    flush oc;
    close_out_noerr oc
  with _ -> ( try Unix.close fd with Unix.Unix_error _ -> ())

let busy_response t queued =
  P.error_response ~id:J.Null ~kind:"busy"
    (D.error ~code:"E1003"
       ~context:
         [ ("in_flight", string_of_int t.cfg.max_in_flight);
           ("queued", string_of_int queued) ]
       "server busy: %d request(s) in flight and %d queued; retry later"
       t.cfg.max_in_flight queued)

let draining_response () =
  P.error_response ~id:J.Null ~kind:"shutting_down"
    (D.error ~code:"E1004" "server is shutting down")

(* the drain hand-off: mark stopping under the lock and wake every
   worker; runs on the acceptor thread only *)
let begin_drain t =
  Mutex.lock t.mu;
  t.stopping <- true;
  Condition.broadcast t.cv;
  Mutex.unlock t.mu

(* hand a classified connection to the workers *)
let enqueue t (lane : P.lane) (fd : Unix.file_descr) : unit =
  (try Unix.clear_nonblock fd with Unix.Unix_error _ -> ());
  Mutex.lock t.mu;
  (match lane with
  | P.Cheap -> Queue.push fd t.cheap_pending
  | P.Heavy -> Queue.push fd t.heavy_pending);
  Condition.broadcast t.cv;
  Mutex.unlock t.mu

(* a connection admitted but not yet classified: the acceptor holds it
   until its first request line is peekable (never consumed — the
   worker reads it normally) or its patience runs out *)
type unclassified_conn = { ufd : Unix.file_descr; arrived : float }

(* Peek at the first request line without consuming it. [`Wait] means
   no complete line yet; classification errs cheap (garbage gets a fast
   error line; EOF gets a fast burial) except for an oversized first
   line, which only heavy operations with inline sources produce. *)
let peek_buf_len = 8192

let peek_classify (fd : Unix.file_descr) : [ `Lane of P.lane | `Wait ] =
  let buf = Bytes.create peek_buf_len in
  match Unix.recv fd buf 0 peek_buf_len [ Unix.MSG_PEEK ] with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    `Wait
  | exception Unix.Unix_error _ -> `Lane P.Cheap
  | 0 -> `Lane P.Cheap
  | n -> (
    let s = Bytes.sub_string buf 0 n in
    match String.index_opt s '\n' with
    | Some i -> `Lane (P.lane_of_line (String.trim (String.sub s 0 i)))
    | None when n = peek_buf_len -> `Lane P.Heavy
    | None -> `Wait)

let acceptor_loop t () =
  let unclassified : unclassified_conn list ref = ref [] in
  let sync_unclassified () =
    Mutex.lock t.mu;
    t.unclassified <- List.length !unclassified;
    Mutex.unlock t.mu
  in
  let refuse_unclassified () =
    List.iter
      (fun c ->
        Metrics.record_rejected_draining t.metrics;
        refuse c.ufd (draining_response ()))
      !unclassified;
    unclassified := [];
    sync_unclassified ()
  in
  (* a listener failing hard (closed socket underneath us) drains the
     server rather than spinning *)
  let broken = ref false in
  let admit fd ~(from : Endpoint.t) =
    if Atomic.get t.stop_requested then begin
      Metrics.record_rejected_draining t.metrics;
      refuse fd (draining_response ())
    end
    else begin
      let refused_tcp =
        (* fault site for the TCP front door: an injected accept
           failure drops the connection before admission *)
        match from with
        | Endpoint.Tcp _ -> (
          match Fi.check t.cfg.faults "tcp.accept" with
          | Some (Fi.Delay s) ->
            Unix.sleepf s;
            false
          | Some _ ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            true
          | None -> false)
        | Endpoint.Unix_path _ -> false
      in
      if not refused_tcp then begin
        Mutex.lock t.mu;
        let queued =
          Queue.length t.cheap_pending + Queue.length t.heavy_pending
          + List.length !unclassified
        in
        let outstanding = t.active + queued in
        Mutex.unlock t.mu;
        if outstanding >= t.cfg.max_in_flight + t.cfg.max_queue then begin
          Metrics.record_rejected_busy t.metrics;
          refuse fd (busy_response t queued)
        end
        else begin
          Endpoint.set_nodelay fd;
          (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
          unclassified :=
            { ufd = fd; arrived = Unix.gettimeofday () } :: !unclassified;
          sync_unclassified ()
        end
      end
    end
  in
  let accept_ready readable =
    List.iter
      (fun (lfd, ep) ->
        if List.memq lfd readable then
          match Unix.accept ~cloexec:true lfd with
          | exception
              Unix.Unix_error
                ( ( Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN
                  | Unix.EWOULDBLOCK ),
                  _, _ ) ->
            ()
          | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
            (* descriptor exhaustion is transient — workers are busy
               closing fds — so back off briefly instead of draining *)
            Unix.sleepf 0.05
          | exception _ -> broken := true
          | fd, _ ->
            (try Unix.clear_nonblock fd with Unix.Unix_error _ -> ());
            admit fd ~from:ep)
      t.listeners
  in
  let classify_ready readable =
    let now = Unix.gettimeofday () in
    let keep =
      List.filter
        (fun c ->
          let decision =
            if List.memq c.ufd readable then peek_classify c.ufd
            else if now -. c.arrived > t.cfg.idle_timeout_s then
              (* silent client: hand it to the cheap lane, whose
                 worker applies the receive timeout and buries it *)
              `Lane P.Cheap
            else `Wait
          in
          match decision with
          | `Wait -> true
          | `Lane lane ->
            enqueue t lane c.ufd;
            false)
        !unclassified
    in
    unclassified := keep;
    sync_unclassified ()
  in
  let rec loop () =
    if Atomic.get t.stop_requested then begin
      refuse_unclassified ();
      begin_drain t
    end
    else
      let watch =
        List.map fst t.listeners @ List.map (fun c -> c.ufd) !unclassified
      in
      (* bounded wait: a stop request must be noticed even when the
         wake-up poke cannot connect (a socket file may have been
         removed underneath us), and unclassified-connection deadlines
         need a tick *)
      match Unix.select watch [] [] 0.5 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception _ ->
        refuse_unclassified ();
        begin_drain t
      | readable, _, _ ->
        accept_ready readable;
        classify_ready readable;
        if !broken then begin
          refuse_unclassified ();
          begin_drain t
        end
        else loop ()
  in
  loop ()

(* ---------- lifecycle ---------- *)

let start ?engine (cfg : config) : t =
  if cfg.listen = [] then
    invalid_arg "serve: at least one endpoint to listen on is required";
  if cfg.max_in_flight < 1 then
    invalid_arg "serve: max_in_flight must be at least 1";
  if cfg.max_queue < 0 then invalid_arg "serve: max_queue must be >= 0";
  (* a worker writing to a client that vanished must see EPIPE, not die *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with _ -> ());
  let engine =
    match engine with
    | Some e -> e
    | None -> A.Engine.of_config (C.Flow_config.of_yaml cfg.base)
  in
  let metrics = Metrics.create () in
  A.Engine.set_warning_sink engine (fun _ -> Metrics.record_cache_warning metrics);
  let listeners =
    let rec bind acc = function
      | [] -> List.rev acc
      | ep :: rest -> (
        match Endpoint.listen_on ep with
        | pair -> bind (pair :: acc) rest
        | exception e ->
          List.iter
            (fun (fd, bound) ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Endpoint.cleanup bound)
            acc;
          raise e)
    in
    bind [] cfg.listen
  in
  (* select says readable, but the connection may be gone by the time
     we accept; never let the acceptor block on a ghost *)
  List.iter
    (fun (fd, _) -> try Unix.set_nonblock fd with Unix.Unix_error _ -> ())
    listeners;
  let t =
    { cfg; engine; metrics; listeners; mu = Mutex.create ();
      cv = Condition.create (); cheap_pending = Queue.create ();
      heavy_pending = Queue.create (); unclassified = 0; active = 0;
      stopping = false; stop_requested = Atomic.make false; acceptor = None;
      workers = []; waited = false }
  in
  t.workers <-
    List.init cfg.max_in_flight (fun i ->
        Thread.create
          (worker_loop t ~reserved:(i = 0 && cfg.max_in_flight > 1))
          ());
  t.acceptor <- Some (Thread.create (acceptor_loop t) ());
  t

let stop (t : t) : unit =
  if not (Atomic.exchange t.stop_requested true) then poke_listeners t

let wait (t : t) : unit =
  if not t.waited then begin
    t.waited <- true;
    (match t.acceptor with Some th -> Thread.join th | None -> ());
    (* crashing workers hire replacements concurrently with this join,
       so join to a fixpoint over snapshots of the roster; it terminates
       because no replacement is hired once [stopping] is set (which the
       acceptor did before we got here) *)
    let joined = Hashtbl.create 8 in
    let rec drain_workers () =
      let remaining =
        Mutex.lock t.mu;
        let r =
          List.filter
            (fun th -> not (Hashtbl.mem joined (Thread.id th)))
            t.workers
        in
        Mutex.unlock t.mu;
        r
      in
      match remaining with
      | [] -> ()
      | ths ->
        List.iter
          (fun th ->
            Thread.join th;
            Hashtbl.replace joined (Thread.id th) ())
          ths;
        drain_workers ()
    in
    drain_workers ();
    List.iter
      (fun (fd, ep) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Endpoint.cleanup ep)
      t.listeners
  end

let run ?engine ?on_ready (cfg : config) : unit =
  let t = start ?engine cfg in
  Option.iter (fun f -> f t) on_ready;
  let on_signal _ = stop t in
  let previous =
    List.map
      (fun s -> (s, Sys.signal s (Sys.Signal_handle on_signal)))
      [ Sys.sigterm; Sys.sigint ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (s, b) -> try Sys.set_signal s b with _ -> ()) previous)
    (fun () -> wait t)
