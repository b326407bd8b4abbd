(* The ALICE command-line tool.

     alice inspect  design.v                 # Table-1 style characteristics
     alice redact   design.v -c flow.yaml -o out.v [--opaque]
     alice redact   - < design.v             # same, source on stdin
     alice sweep    design.v -c sweep.yaml   # config grid over one design
     alice attack    design.v -m module      # lock a module and SAT-attack it
     alice simulate  design.v --vcd out.vcd  # random-stimulus simulation
     alice bench     <name>                  # run a bundled benchmark
     alice serve     --socket /run/alice.sock  # long-lived redaction daemon
     alice client    --socket /run/alice.sock request.json  # talk to it

   The YAML configuration file follows the paper's Section 3; see
   Alice_config.Flow_config for the recognized keys. serve/client speak
   the newline-delimited JSON protocol of Alice_server.Protocol over a
   Unix-domain socket, sharing one characterization cache across every
   request.

   redact, bench, sweep and advise share one flag group: --jobs
   (characterization worker domains), --cache-dir and --no-cache (the
   persistent cache; see Alice.Engine), plus the
   measured-selection knobs --score, --attack-budget and --attack-jobs
   (see Alice.Selection.Scorer). serve takes only --jobs and the two cache
   flags (scoring comes from its base config or the request); cache gc
   takes only --cache-dir. Warm-cache runs produce byte-identical output
   to cold ones, they just skip CreateEFPGA (and, under --score measured,
   replay cached attack verdicts instead of re-running the SAT attack).

   Errors are reported as structured diagnostics (--diag-format=text|json;
   text goes to stderr, json to stdout). Exit codes: 0 success, 1 input
   errors were reported, 2 internal failure. *)

open Cmdliner

module A = Alice
module B = Alice_benchmarks.Suite
module C = Alice_config
module D = Alice_diag.Diag
module F = Alice_fabric
module N = Alice_netlist
module V = Alice_verilog
module Sec = Alice_security
module S = Alice_server
module J = Alice_config.Json_lite

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* a source file, or stdin for [-] *)
let read_input = function
  | "-" -> In_channel.input_all In_channel.stdin
  | path -> read_file path

let load_yaml = function
  | None -> J.Null
  | Some path -> C.Yaml_lite.parse (read_file path)

let load_design path =
  let src = read_file path in
  V.Parser.parse ~file:path src

let load_config = function
  | None -> C.Flow_config.default
  | Some path -> C.Flow_config.of_string (read_file path)

(* ---------- shared arguments ---------- *)

(* the design every analysis command reads; redact also takes stdin *)
let design_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"DESIGN.v")

let output_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT.v")

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* [-o PATH] writes the result there and says so on stderr; without it
   the result goes to stdout *)
let write_output (output : string option) (text : string) : unit =
  match output with
  | Some path ->
    write_file path text;
    Format.eprintf "wrote %s@." path
  | None -> print_string text

(* ---------- diagnostics plumbing ---------- *)

let diag_format =
  let fmt_conv = Arg.enum [ ("text", D.Text); ("json", D.Json) ] in
  Arg.(value & opt fmt_conv D.Text
       & info [ "diag-format" ] ~docv:"FMT"
           ~doc:"Diagnostic output format: $(b,text) (to stderr) or \
                 $(b,json) (to stdout).")

(* ---------- parallelism & cache plumbing ----------

   One flag group, threaded identically through redact, bench, sweep
   and advise: it evaluates to the overrides, laid over whatever
   configuration a command loaded. serve takes only the engine subset
   (it also reads the raw [jobs] to cap per-request parallelism), cache
   gc only the cache directory. *)

let jobs_flag =
  Arg.(value & opt (some int) None
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Characterize candidate clusters across $(docv) worker \
                 domains. $(b,1) disables parallelism; the default is the \
                 machine's recommended domain count. Results are \
                 identical for any value.")

let cache_dir_flag =
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Root of the persistent cache of characterizations, \
                 attack verdicts and sweep checkpoints. Defaults to \
                 \\$ALICE_CACHE_DIR, \\$XDG_CACHE_HOME/alice or \
                 ~/.cache/alice. Warm runs produce byte-identical \
                 results, they just skip work already done.")

let no_cache_flag =
  Arg.(value & flag
       & info [ "no-cache" ]
           ~doc:"Disable the persistent cache for this invocation \
                 (nothing is read or written).")

(* count flags are rejected as the flow rejects the same YAML keys *)
let bounded ~(must : string) (ok : int -> bool) (flag : string) (n : int) =
  if ok n then n
  else invalid_arg (Printf.sprintf "%s %d: must be %s" flag n must)

let positive = bounded ~must:"positive" (fun n -> n > 0)

let at_least_1 = bounded ~must:"at least 1" (fun n -> n >= 1)

let over o set cfg = match o with None -> cfg | Some v -> set cfg v

(* --jobs, --cache-dir and --no-cache over a loaded configuration *)
let engine_overrides jobs cache_dir no_cache (cfg : C.Flow_config.t) =
  cfg
  |> over jobs (fun cfg n ->
         { cfg with C.Flow_config.jobs = at_least_1 "--jobs" n })
  |> over cache_dir (fun cfg dir ->
         { cfg with C.Flow_config.cache_dir = Some dir })
  |> fun cfg ->
  if no_cache then { cfg with C.Flow_config.cache = false } else cfg

let flow_flags : (C.Flow_config.t -> C.Flow_config.t) Term.t =
  let score =
    let mode_conv =
      Arg.enum
        [ ("heuristic", C.Flow_config.Heuristic);
          ("measured", C.Flow_config.Measured) ]
    in
    Arg.(value & opt (some mode_conv) None
         & info [ "score" ] ~docv:"MODE"
             ~doc:"Candidate scoring: $(b,heuristic) ranks by the paper's \
                   Eq. 1 (the default); $(b,measured) runs a budgeted \
                   oracle-guided SAT attack against each candidate's \
                   locked netlist and ranks on measured key-recovery \
                   cost traded against area. Verdicts are cached next to \
                   characterizations, so warm reruns perform no solver \
                   calls.")
  in
  let attack_budget =
    Arg.(value & opt (some int) None
         & info [ "attack-budget" ] ~docv:"CONFLICTS"
             ~doc:"Solver conflict budget per measured-selection attack; \
                   candidates that exhaust it count as $(b,inconclusive) \
                   (i.e. resistant at this budget). Only meaningful with \
                   $(b,--score measured).")
  in
  let attack_jobs =
    Arg.(value & opt (some int) None
         & info [ "attack-jobs" ] ~docv:"N"
             ~doc:"Run measured-selection attacks across $(docv) worker \
                   domains. Rankings are identical for any value.")
  in
  let overrides jobs cache_dir no_cache score budget attack_jobs cfg =
    engine_overrides jobs cache_dir no_cache cfg
    |> over score (fun cfg mode ->
           { cfg with C.Flow_config.score_mode = mode })
    |> over budget (fun cfg n ->
           let n = positive "--attack-budget" n in
           { cfg with C.Flow_config.attack_budget = n })
    |> over attack_jobs (fun cfg n ->
           let n = at_least_1 "--attack-jobs" n in
           { cfg with C.Flow_config.attack_jobs = n })
  in
  Term.(const overrides $ jobs_flag $ cache_dir_flag $ no_cache_flag $ score
        $ attack_budget $ attack_jobs)

(* the per-run cache accounting, on stderr next to the tables *)
let report_cache_line (flow : A.Flow.t) : unit =
  let s = flow.A.Flow.char_stats in
  Format.eprintf "cache: %d hits, %d computed, %d unique@."
    s.A.Characterize.cache_hits s.A.Characterize.computed
    s.A.Characterize.unique

(* measured-selection accounting, printed only when attacks could run *)
let report_attack_line (cfg : C.Flow_config.t) (flow : A.Flow.t) : unit =
  match cfg.C.Flow_config.score_mode with
  | C.Flow_config.Heuristic -> ()
  | C.Flow_config.Measured ->
    let a = flow.A.Flow.selection.A.Selection.attack in
    Format.eprintf "attack: %d run, %d cached, %d inconclusive, %d reused@."
      a.A.Selection.Scorer.attacks_run a.A.Selection.Scorer.attacks_cached
      a.A.Selection.Scorer.attacks_inconclusive
      a.A.Selection.Scorer.attacks_reused;
    (* per-candidate verdicts, one line per valid fabric implementation *)
    match A.Report.verdict_rows flow with
    | [] -> ()
    | rows ->
      Format.eprintf "%a" A.Report.pp_verdict_header ();
      List.iter (fun r -> Format.eprintf "%a" A.Report.pp_verdict_row r) rows

let render_diags (fmt : D.format) (diags : D.t list) : unit =
  if diags <> [] then
    match fmt with
    | D.Text -> prerr_endline (D.render_list D.Text diags)
    | D.Json -> print_string (D.render_list D.Json diags)

(* sweep and advise: how many points came back from checkpoints *)
let report_resumed ~(cmd : string) ~(noun : string)
    (points : A.Engine.sweep_point list) : unit =
  let resumed = List.filter (fun sp -> sp.A.Engine.sp_resumed) points in
  if resumed <> [] then
    Format.eprintf
      "%s: %d of %d %s resumed from checkpoints (use --no-resume to \
       recompute)@."
      cmd (List.length resumed) (List.length points) noun

(* sweep and advise: where reuse across points landed, per
   characterization stage *)
let report_stage_line (engine : A.Engine.t) : unit =
  Format.eprintf "stages: %s@."
    (String.concat "; "
       (List.map
          (fun (s : A.Characterize.stage_stats) ->
            Printf.sprintf "%s %d computed, %d hits" s.A.Characterize.stage
              s.A.Characterize.stage_computed s.A.Characterize.stage_hits)
          (A.Engine.stage_stats engine)))

(* render every point's diagnostics, each tagged with its point's name;
   any error among them makes the exit code 1 *)
let point_diags_exit (fmt : D.format) (points : A.Engine.sweep_point list) :
    int =
  let tagged = List.concat_map A.Engine.point_diags points in
  render_diags fmt tagged;
  if List.exists D.is_error tagged then 1 else 0

let no_resume_arg ~(noun : string) =
  Arg.(value & flag
       & info [ "no-resume" ]
           ~doc:
             (Printf.sprintf
                "Recompute every %s instead of serving those already \
                 checkpointed by an earlier (possibly killed) run over the \
                 same inputs. Checkpoints are still written."
                noun))

(* Classify an exception that escaped a command into a diagnostic plus
   the exit code it implies: recognized input/configuration problems
   (the library's classifier, plus the client's own) are 1, anything
   unexpected is an internal failure, 2. *)
let diag_of_cli_exn : exn -> D.t * int = function
  | J.Parse_error (line, msg) ->
    (D.error ~code:"E1000" "request parse error at line %d: %s" line msg, 1)
  | S.Client.Connection_error msg -> (D.error ~code:"E0001" "%s" msg, 1)
  | e -> (
    match A.Flow.classify_exn e with Some d -> (d, 1) | None -> (D.of_exn e, 2))

(* Run a command body that returns its own exit code; exceptions become
   rendered diagnostics (appended to any partial ones already collected)
   and the classified exit code. *)
let handle_errors ~(fmt : D.format) ?(collector : D.Collector.t option)
    (f : unit -> int) : int =
  match f () with
  | code -> code
  | exception e ->
    let d, code = diag_of_cli_exn e in
    let pending =
      match collector with Some c -> D.Collector.list c | None -> []
    in
    render_diags fmt (pending @ [ d ]);
    code

(* ---------- inspect ---------- *)

let inspect_cmd =
  let top =
    Arg.(value & opt (some string) None & info [ "t"; "top" ] ~docv:"MODULE")
  in
  let run file top fmt =
    handle_errors ~fmt (fun () ->
        let ast = load_design file in
        let d = A.Flow.elaborate_checked ?top ast in
        Format.printf "top module: %s@." d.V.Elaborate.d_top;
        Format.printf "%a" A.Report.pp_table1_header ();
        Format.printf "%a" A.Report.pp_table1_row
          (A.Report.table1_row ~design_name:(Filename.basename file) d);
        Format.printf "@.modules:@.";
        let instances = V.Design.all_instances d in
        List.iter
          (fun (m : V.Elaborate.emodule) ->
            let name = m.V.Elaborate.em_name in
            let own = List.filter (fun n -> n.V.Design.module_name = name) instances in
            Format.printf "  %-24s %4d I/O pins, %d instance(s)@." name
              (V.Elaborate.io_pin_count m) (List.length own))
          (V.Design.non_top_modules d);
        0)
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Show design characteristics (Table 1 style)")
    Term.(const run $ design_arg $ top $ diag_format)

(* ---------- redact ---------- *)

let redact_cmd =
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DESIGN.v"
             ~doc:"Verilog source file, or $(b,-) to read it from stdin.")
  in
  let config =
    Arg.(value & opt (some file) None & info [ "c"; "config" ] ~docv:"FLOW.yaml")
  in
  let opaque = Arg.(value & flag & info [ "opaque" ] ~doc:"Emit the foundry view") in
  let run file config output opaque flags fmt =
    let collector = D.Collector.create () in
    handle_errors ~fmt ~collector (fun () ->
        let src = read_input file in
        let src_name = if file = "-" then "<stdin>" else file in
        let cfg = flags (load_config config) in
        let engine = A.Engine.of_config cfg in
        (* recovering front end: every syntax error lands in the
           collector and surviving modules continue through the flow *)
        let flow =
          A.Engine.run engine
            (A.Flow.request ~config:cfg ~diags:collector
               (A.Flow.Text { text = src; file = Some src_name }))
        in
        report_cache_line flow;
        report_attack_line cfg flow;
        Format.eprintf "%a" A.Report.pp_table2_header ();
        Format.eprintf "%a" A.Report.pp_table2_row
          (A.Report.row_of_flow ~design_name:(Filename.basename src_name) flow);
        let view = if opaque then A.Redact.Opaque else A.Redact.Programmed in
        let code =
          match A.Flow.redact ~view flow with
          | None ->
            D.Collector.add collector
              (D.error ~code:"E0801"
                 "no feasible redaction under this configuration");
            1
          | Some r ->
            List.iter
              (fun (s : A.Redact.efpga_site) ->
                Format.eprintf "%s at %s: %d modules, gpio %d in / %d out@."
                  s.efpga_name s.insertion_point (List.length s.members)
                  s.gpio_in_width s.gpio_out_width)
              r.A.Redact.sites;
            write_output output r.A.Redact.verilog;
            if D.Collector.has_errors collector then 1 else 0
        in
        render_diags fmt (D.Collector.list collector);
        code)
  in
  Cmd.v
    (Cmd.info "redact" ~doc:"Run the ALICE flow and emit the redacted design")
    Term.(const run $ file $ config $ output_arg $ opaque $ flow_flags
          $ diag_format)

(* ---------- sweep ---------- *)

(* A sweep file describes a configuration grid over one design:

     base:              # optional: flow-config keys shared by all entries
       max_io_pins: 64
     sweep:             # one flow-config map per run; `name` labels the row
       - name: two-efpga
         max_efpgas: 2
       - name: one-big
         max_efpgas: 1
         fabric:
           max_size: 16

   Every entry is deep-merged over `base` (entry wins) and run through
   one engine, so entries sharing fabric parameters share
   characterizations — within the sweep and, via the persistent cache,
   with every earlier run. *)

let sweep_cmd =
  let config =
    Arg.(required & opt (some file) None
         & info [ "c"; "config" ] ~docv:"SWEEP.yaml"
             ~doc:"Sweep description: an optional $(b,base) \
                   configuration map and a $(b,sweep) list of \
                   configuration overlays, one flow run per entry.")
  in
  let run file config no_resume flags fmt =
    handle_errors ~fmt (fun () ->
        let doc = C.Yaml_lite.parse (read_file config) in
        let base = J.get_obj doc "base" in
        let entries =
          match J.find doc "sweep" with
          | Some (J.List (_ :: _ as items))
            when List.for_all (function J.Obj _ -> true | _ -> false) items ->
            items
          | Some _ -> invalid_arg "sweep: expected a non-empty list of maps"
          | None -> invalid_arg "sweep: missing `sweep` list"
        in
        let ast = load_design file in
        (* cache knobs (and the engine) come from base + flags; each
           entry still carries its own full configuration *)
        let engine = A.Engine.of_config (flags (C.Flow_config.of_doc base)) in
        let points =
          List.mapi
            (fun i entry ->
              let name =
                J.get_string ~default:(Printf.sprintf "cfg%d" (i + 1)) entry
                  "name"
              in
              let cfg = flags (C.Flow_config.of_doc (J.merge base entry)) in
              ( name,
                A.Flow.request ~config:cfg
                  ~diags:(D.Collector.create ())
                  (A.Flow.Ast ast) ))
            entries
        in
        let results = A.Engine.run_sweep ~resume:(not no_resume) engine points in
        Format.printf "%-16s %-8s %-16s %9s %9s %9s %6s %9s %8s %8s@." "config"
          "feasible" "best eFPGA(s)" "filter(s)" "cluster(s)" "select(s)"
          "hits" "computed" "skipped" "resumed";
        List.iter
          (fun (sp : A.Engine.sweep_point) ->
            let feasible = if sp.A.Engine.sp_feasible then "yes" else "no" in
            let sizes = Option.value sp.A.Engine.sp_fabrics ~default:"-" in
            let t = sp.A.Engine.sp_times in
            Format.printf
              "%-16s %-8s %-16s %9.2f %9.2f %9.2f %6d %9d %8d %8s@."
              sp.A.Engine.sp_name feasible sizes t.A.Flow.filtering_s
              t.A.Flow.clustering_s t.A.Flow.selection_s sp.A.Engine.sp_hits
              sp.A.Engine.sp_computed sp.A.Engine.sp_skipped
              (if sp.A.Engine.sp_resumed then "yes" else "no"))
          results;
        report_resumed ~cmd:"sweep" ~noun:"entries" results;
        report_stage_line engine;
        (match A.Engine.disk_stats engine with
        | None -> ()
        | Some ds ->
          Format.eprintf "cache store: %d disk hits, %d stores, %d failures (%s)@."
            ds.A.Disk_cache.disk_hits ds.A.Disk_cache.stores
            ds.A.Disk_cache.failures
            (Option.value (A.Engine.cache_root engine) ~default:"-"));
        point_diags_exit fmt results)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Run a YAML-described configuration grid over one design, \
             reusing characterizations across entries and runs; completed \
             entries are checkpointed, so a killed sweep resumes where it \
             died")
    Term.(const run $ design_arg $ config $ no_resume_arg ~noun:"entry"
          $ flow_flags $ diag_format)

(* ---------- advise ----------

   The pre-architecture advisor: enumerate a candidate grid over the
   searchable (arch × config) axes, run it through the sweep machinery
   (cached, per-point resumable, attack-verdict-warm), and rank the
   Pareto front over (area, timing, security). The JSON report is
   deliberately free of wall-clock and resume provenance, so cold and
   warm runs are byte-identical — check.sh asserts it. *)

let advise_cmd =
  let constraints =
    Arg.(value & opt (some file) None
         & info [ "c"; "constraints" ] ~docv:"CONSTRAINTS.yaml"
             ~doc:"Constraint document: an optional $(b,base) \
                   flow-configuration map applied to every candidate, \
                   plus an optional $(b,axes) map pinning the grid axes \
                   ($(b,lut_inputs), $(b,max_fabric_size), \
                   $(b,target_utilization), $(b,attack_budget), \
                   $(b,score)). Unpinned axes default from the design \
                   itself.")
  in
  let format =
    let format_conv = Arg.enum [ ("text", `Text); ("json", `Json) ] in
    Arg.(value & opt format_conv `Text
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Report format: $(b,text) (ranked table on stderr, \
                   recommendation on stdout) or $(b,json) \
                   (machine-readable report on stdout).")
  in
  let run file constraints format no_resume flags fmt =
    handle_errors ~fmt (fun () ->
        let doc = load_yaml constraints in
        let base = flags (C.Flow_config.of_doc (J.get_obj doc "base")) in
        let ast = load_design file in
        let source = A.Flow.Ast ast in
        let plan = A.Advisor.plan_of_source ~base ~constraints:doc source in
        let engine = A.Engine.of_config base in
        let report =
          A.Advisor.run ~resume:(not no_resume) engine ~source plan
        in
        let entries = report.A.Advisor.r_entries in
        let points =
          List.map (fun (e : A.Advisor.entry) -> e.A.Advisor.e_point) entries
        in
        report_resumed ~cmd:"advise" ~noun:"candidates" points;
        report_stage_line engine;
        (match format with
        | `Json ->
          print_endline (J.to_string (A.Advisor.json_of_report report))
        | `Text ->
          Format.eprintf "%a" A.Report.pp_advise_header ();
          List.iter
            (fun r -> Format.eprintf "%a" A.Report.pp_advise_row r)
            (A.Advisor.table_rows report);
          Format.printf "advise: %d candidates (%d deduplicated), Pareto \
                         front of %d@."
            (List.length entries) report.A.Advisor.r_deduped
            (List.length report.A.Advisor.r_front);
          match report.A.Advisor.r_front with
          | [] -> Format.printf "recommend: none (no feasible candidate)@."
          | best :: _ ->
            let sp = best.A.Advisor.e_point in
            let m =
              match sp.A.Engine.sp_metrics with
              | Some m -> m
              | None -> assert false (* front members are feasible *)
            in
            Format.printf
              "recommend: %s (fabrics %s): area %.0f um2, path %.2f ns, \
               security %.3f (%s)@."
              best.A.Advisor.e_name
              (Option.value sp.A.Engine.sp_fabrics ~default:"-")
              m.A.Engine.pm_area_um2 m.A.Engine.pm_timing_ns
              m.A.Engine.pm_security
              (C.Flow_config.score_mode_to_string m.A.Engine.pm_security_mode));
        point_diags_exit fmt points)
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:"Recommend fabric configurations for a design before \
             committing to one: sweep a candidate grid over the (arch × \
             config) space, compute the Pareto front over area, timing \
             and security, and rank it. Candidates are cached and \
             checkpointed like sweep entries, so a killed run resumes \
             with zero recomputation")
    Term.(const run $ design_arg $ constraints $ format
          $ no_resume_arg ~noun:"candidate" $ flow_flags $ diag_format)

(* ---------- attack ---------- *)

let attack_cmd =
  (* the work an attack spent, as the measured flow reports it *)
  let work (o : Sec.Sat_attack.outcome) =
    Printf.sprintf "%d conflicts, %d decisions, %d learnt clauses reused, %.2fs"
      o.Sec.Sat_attack.conflicts o.Sec.Sat_attack.decisions
      o.Sec.Sat_attack.reused o.Sec.Sat_attack.seconds
  in
  let module_name =
    Arg.(required & opt (some string) None & info [ "m"; "module" ] ~docv:"MODULE")
  in
  let iterations =
    Arg.(value & opt int 256
         & info [ "iterations" ] ~docv:"N"
             ~doc:"Distinguishing inputs the attack may use; when they \
                   run out the attack reports $(b,exhausted).")
  in
  let solver_budget =
    Arg.(value & opt (some int) None
         & info [ "attack-budget" ] ~docv:"CONFLICTS"
             ~doc:"Conflict budget per SAT-solver call; when exhausted the \
                   attack reports $(b,inconclusive) instead of looping. \
                   Same name and meaning as the flow commands' \
                   measured-selection flag.")
  in
  let run file module_name iterations solver_budget fmt =
    handle_errors ~fmt (fun () ->
        let budget =
          { Sec.Sat_attack.max_iterations = positive "--iterations" iterations;
            solver_conflicts =
              Option.map (positive "--attack-budget") solver_budget }
        in
        let ast = load_design file in
        let d = A.Flow.elaborate_checked ast in
        let circuit = N.Synth.synthesize_module d module_name in
        let mapped = N.Lutmap.map ~k:4 circuit in
        Format.printf "module %s: %d LUTs, %d FFs, %d I/O bits@." module_name
          (N.Circuit.lut_count mapped) (N.Circuit.dff_count mapped)
          (N.Circuit.io_bit_count mapped);
        let locked = Sec.Locked.of_mapped mapped in
        let oracle = Sec.Locked.make_oracle locked in
        let o = Sec.Sat_attack.attack ~budget locked ~oracle in
        Format.printf "key space: %d bits@." o.Sec.Sat_attack.key_bits;
        (match o.Sec.Sat_attack.status with
        | Sec.Sat_attack.Converged ->
          let correct =
            match o.Sec.Sat_attack.key with
            | Some key -> Sec.Locked.key_is_correct locked key
            | None -> false
          in
          Format.printf
            "attack converged after %d distinguishing inputs (%s); \
             recovered key is %s@."
            o.Sec.Sat_attack.iterations (work o)
            (if correct then "functionally correct" else "NOT correct")
        | Sec.Sat_attack.Exhausted ->
          Format.printf "attack exhausted its budget after %d DIPs (%s)@."
            o.Sec.Sat_attack.iterations (work o)
        | Sec.Sat_attack.Inconclusive ->
          render_diags fmt
            [ D.warning ~code:"W0501"
                "attack inconclusive: solver conflict budget exhausted \
                 after %d DIPs (%s); proves nothing about the lock"
                o.Sec.Sat_attack.iterations (work o) ]);
        0)
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Lock one module as an eFPGA and run the oracle-guided SAT attack")
    Term.(const run $ design_arg $ module_name $ iterations $ solver_budget
          $ diag_format)

(* ---------- simulate ---------- *)

let simulate_cmd =
  let top =
    Arg.(value & opt (some string) None & info [ "t"; "top" ] ~docv:"MODULE")
  in
  let cycles = Arg.(value & opt int 32 & info [ "cycles" ] ~docv:"N") in
  let vcd_out =
    Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"OUT.vcd")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S") in
  let run file top cycles vcd_out seed fmt =
    handle_errors ~fmt (fun () ->
        let ast = load_design file in
        let d = A.Flow.elaborate_checked ?top ast in
        let c = N.Synth.synthesize d in
        let sim = N.Simulate.create c in
        let vcd = N.Vcd.create ~module_name:d.V.Elaborate.d_top sim in
        let st = Random.State.make [| seed |] in
        for _ = 1 to cycles do
          List.iter
            (fun (name, nets) ->
              N.Simulate.set_input_bits sim name
                (Array.init (Array.length nets) (fun _ -> Random.State.bool st)))
            c.N.Circuit.inputs;
          N.Simulate.step sim;
          N.Simulate.eval sim;
          N.Vcd.sample vcd
        done;
        List.iter
          (fun (name, _) ->
            Format.printf "%s = %s@." name
              (N.Simulate.string_of_bits (N.Simulate.read_output_bits sim name)))
          c.N.Circuit.outputs;
        (match vcd_out with
        | Some path ->
          N.Vcd.write_file vcd path;
          Format.eprintf "wrote %s@." path
        | None -> ());
        0)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Synthesize and simulate a design with random stimuli;              optionally dump a VCD waveform")
    Term.(const run $ design_arg $ top $ cycles $ vcd_out $ seed
          $ diag_format)

(* ---------- bench ---------- *)

let bench_cmd =
  let bench_name = Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK") in
  let cfg2 = Arg.(value & flag & info [ "cfg2" ] ~doc:"Use the paper's cfg2") in
  let dump =
    Arg.(value & flag
         & info [ "dump-source" ]
             ~doc:"Print the benchmark's Verilog source and exit \
                   (for driving $(b,redact) on a bundled design).")
  in
  let run name cfg2 dump flags fmt =
    handle_errors ~fmt (fun () ->
        match B.find name with
        | None ->
          render_diags fmt
            [ D.error ~code:"E0002" "unknown benchmark %s (have: %s)" name
                (String.concat ", " (List.map (fun b -> b.B.name) B.all)) ];
          1
        | Some b when dump ->
          print_string b.B.source;
          0
        | Some b ->
          let config = flags (if cfg2 then B.config2 b else B.config1 b) in
          let engine = A.Engine.of_config config in
          let flow =
            A.Engine.run engine
              (A.Flow.request ~config (A.Flow.Ast (B.parse b)))
          in
          report_cache_line flow;
          report_attack_line config flow;
          Format.printf "%a" A.Report.pp_table2_header ();
          Format.printf "%a" A.Report.pp_table2_row
            (A.Report.row_of_flow ~design_name:b.B.name flow);
          (match flow.A.Flow.selection.A.Selection.best with
          | None -> ()
          | Some best -> Format.printf "best: %a@." A.Selection.pp_solution best);
          render_diags fmt flow.A.Flow.diags;
          if List.exists D.is_error flow.A.Flow.diags then 1 else 0)
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Run a bundled benchmark through the flow")
    Term.(const run $ bench_name $ cfg2 $ dump $ flow_flags $ diag_format)

(* ---------- serve ---------- *)

let connect_arg =
  Arg.(required & opt (some string) None
       & info [ "s"; "socket"; "connect" ] ~docv:"ENDPOINT"
           ~doc:"Endpoint of the daemon: $(b,unix:PATH), $(b,tcp:HOST:PORT), \
                 or a bare Unix-socket path.")

let serve_cmd =
  let listen =
    Arg.(value & opt_all string []
         & info [ "l"; "listen" ] ~docv:"ENDPOINT"
             ~doc:"Listen on $(docv): $(b,unix:PATH) or $(b,tcp:HOST:PORT) \
                   ($(b,PORT) $(b,0) picks an ephemeral port, printed on \
                   startup). Repeatable; one acceptor multiplexes every \
                   endpoint and the protocol is byte-identical over both \
                   transports.")
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "s"; "socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket the daemon listens on (shorthand for \
                   $(b,--listen unix:PATH)).")
  in
  let config =
    Arg.(value & opt (some file) None
         & info [ "c"; "config" ] ~docv:"BASE.yaml"
             ~doc:"Base flow configuration merged under every request's \
                   inline $(b,config) (request keys win). Its $(b,cache) / \
                   $(b,cache_dir) keys pick the shared engine's store.")
  in
  let max_in_flight =
    Arg.(value & opt int 4
         & info [ "max-in-flight" ] ~docv:"N"
             ~doc:"Worker threads, i.e. requests executing concurrently.")
  in
  let max_queue =
    Arg.(value & opt int 16
         & info [ "max-queue" ] ~docv:"N"
             ~doc:"Admitted connections that may wait for a worker; beyond \
                   $(b,max-in-flight + max-queue) outstanding, new \
                   connections are refused with a structured $(b,busy) \
                   error (E1003) instead of queueing without bound.")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"S"
             ~doc:"Default per-request characterization deadline in seconds \
                   (the request configuration's own \
                   $(b,characterize_deadline_s) wins). Expensive designs \
                   degrade to deadline-skip diagnostics instead of \
                   monopolizing a worker.")
  in
  let idle_timeout =
    Arg.(value & opt float 30.0
         & info [ "idle-timeout" ] ~docv:"S"
             ~doc:"Close a connection idle this long between requests, so \
                   dead clients cannot pin a worker or stall the drain.")
  in
  let run listen socket config max_in_flight max_queue deadline idle_timeout
      jobs cache_dir no_cache fmt =
    handle_errors ~fmt (fun () ->
        let listen =
          (match socket with
          | Some path -> [ S.Endpoint.Unix_path path ]
          | None -> [])
          @ List.map S.Endpoint.parse listen
        in
        if listen = [] then
          invalid_arg
            "serve: nowhere to listen; give --listen ENDPOINT (or --socket \
             PATH)";
        let base = load_yaml config in
        let engine =
          A.Engine.of_config
            (engine_overrides jobs cache_dir no_cache
               (C.Flow_config.of_doc base))
        in
        let server_cfg =
          { (S.Server.default_config ~socket_path:"/unused") with
            S.Server.listen; max_in_flight; max_queue; base;
            jobs; deadline_s = deadline;
            idle_timeout_s = idle_timeout }
        in
        (* the effective endpoints come from the live server, so a
           tcp:HOST:0 line carries the kernel-chosen port *)
        let on_ready t =
          List.iter
            (fun ep ->
              Format.eprintf "alice: serving on %s (workers %d, queue %d%s)@."
                (S.Endpoint.to_string ep) max_in_flight max_queue
                (match A.Engine.cache_root engine with
                | Some root -> ", cache " ^ root
                | None -> ", cache off"))
            (S.Server.endpoints t)
        in
        S.Server.run ~engine ~on_ready server_cfg;
        Format.eprintf "alice: drained, sockets closed@.";
        0)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the long-lived redaction daemon: newline-delimited JSON \
             requests over Unix-domain sockets and/or TCP, one shared \
             characterization cache across all clients, bounded in-flight \
             admission control with a cheap lane reserved for health \
             checks, graceful drain on SIGTERM or a $(b,shutdown) request")
    Term.(const run $ listen $ socket $ config $ max_in_flight $ max_queue
          $ deadline $ idle_timeout $ jobs_flag $ cache_dir_flag
          $ no_cache_flag $ diag_format)

(* ---------- client ---------- *)

let client_cmd =
  let request_file =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"REQUEST.json"
             ~doc:"File holding one protocol request line ($(b,-) or \
                   omitted: read it from stdin). Ignored when $(b,--op) or \
                   $(b,--redact) builds the request instead.")
  in
  let op =
    Arg.(value & opt (some (enum [ ("ping", `Ping); ("stats", `Stats);
                                   ("shutdown", `Shutdown);
                                   ("cache-gc", `CacheGc) ])) None
         & info [ "op" ] ~docv:"OP"
             ~doc:"Build a parameterless request: $(b,ping), $(b,stats), \
                   $(b,shutdown) or $(b,cache-gc).")
  in
  let redact_src =
    Arg.(value & opt (some string) None
         & info [ "redact" ] ~docv:"DESIGN.v"
             ~doc:"Build a redact request from this Verilog file ($(b,-): \
                   stdin); the source is sent inline.")
  in
  let config =
    Arg.(value & opt (some file) None
         & info [ "c"; "config" ] ~docv:"CONFIG.json"
             ~doc:"JSON object of flow-configuration keys attached to a \
                   $(b,--redact) request.")
  in
  let view =
    Arg.(value & opt (some string) None
         & info [ "view" ] ~docv:"VIEW"
             ~doc:"Redaction view for $(b,--redact): $(b,programmed), \
                   $(b,opaque) or $(b,structural).")
  in
  let extract =
    Arg.(value & opt (some string) None
         & info [ "extract" ] ~docv:"FIELD"
             ~doc:"Instead of the whole response, print this top-level \
                   string field raw (e.g. $(b,verilog)); errors if the \
                   field is absent.")
  in
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"OUT"
             ~doc:"Write the printed result to $(docv) instead of stdout.")
  in
  let timeout =
    Arg.(value & opt float 300.0
         & info [ "timeout" ] ~docv:"S"
             ~doc:"Response timeout in seconds; positive and finite.")
  in
  let retry_attempts =
    Arg.(value & opt int 1
         & info [ "retry" ] ~docv:"N"
             ~doc:"Total attempts (including the first) on connection \
                   failures and $(b,busy)/$(b,draining) refusals, with \
                   exponential backoff and deterministic jitter between \
                   them. $(b,1) (the default) never retries; this is what \
                   makes the client safe to script in loops against a \
                   loaded or restarting server.")
  in
  let retry_base =
    Arg.(value & opt float 0.05
         & info [ "retry-base" ] ~docv:"S"
             ~doc:"Base (and floor) backoff delay in seconds; must be \
                   positive (a zero base would retry in a hot loop \
                   against a server that refused us for being loaded).")
  in
  let stream =
    Arg.(value & flag
         & info [ "stream" ]
             ~doc:"Ask for a streaming response (sweep and advise \
                   requests): adds $(b,stream:true) and the protocol minor \
                   version to the request, and prints every \
                   $(b,event:\"row\") frame to stdout the moment it \
                   arrives; $(b,--extract) and exit status apply to the \
                   terminal frame. Against an older server the response \
                   simply comes back buffered.")
  in
  let retry_deadline =
    Arg.(value & opt (some float) None
         & info [ "retry-deadline" ] ~docv:"S"
             ~doc:"Total wall-clock cap across all attempts: a retry whose \
                   backoff sleep would cross it is not made.")
  in
  let run socket request_file op redact_src config view extract output timeout
      retry_attempts retry_base retry_deadline stream fmt =
    handle_errors ~fmt (fun () ->
        let request =
          match (op, redact_src) with
          | Some `Ping, _ -> S.Protocol.ping_request ()
          | Some `Stats, _ -> S.Protocol.stats_request ()
          | Some `Shutdown, _ -> S.Protocol.shutdown_request ()
          | Some `CacheGc, _ -> S.Protocol.cache_gc_request ()
          | None, Some src ->
            let text = read_input src in
            let config =
              match config with
              | None -> J.Null
              | Some path -> J.parse (read_file path)
            in
            S.Protocol.redact_request ~config ?view (S.Protocol.Inline text)
          | None, None ->
            let text = read_input (Option.value request_file ~default:"-") in
            let line = String.trim text in
            if line = "" then invalid_arg "client: empty request";
            (* fail on malformed JSON client-side, before the round trip *)
            ignore (J.parse line);
            line
        in
        let request =
          if not stream then request
          else
            (* opt the request into streaming: set stream:true and
               announce our minor version so the server may send rows *)
            match J.parse request with
            | J.Obj fields ->
              let fields =
                List.filter (fun (k, _) -> k <> "stream" && k <> "mv") fields
              in
              J.to_string
                (J.Obj
                   (fields
                   @ [ ("mv", J.Int S.Protocol.minor);
                       ("stream", J.Bool true) ]))
            | _ -> invalid_arg "client: --stream needs a JSON object request"
        in
        let retry =
          if retry_attempts <= 1 then None
          else if retry_base <= 0.0 then
            invalid_arg "client: --retry-base must be positive"
          else
            Some
              { S.Client.default_retry with
                S.Client.attempts = retry_attempts;
                base_delay_s = retry_base;
                deadline_s = retry_deadline }
        in
        let on_event =
          if stream then
            Some
              (fun line ->
                print_endline line;
                flush stdout)
          else None
        in
        let response =
          S.Client.one_shot ~timeout_s:timeout ?retry ?on_event ~socket
            request
        in
        let doc = J.parse response in
        let printed =
          match extract with
          | None -> response ^ "\n"
          | Some field -> (
            match J.find doc field with
            | Some (J.String s) -> s
            | Some _ ->
              invalid_arg
                (Printf.sprintf "client: response field %s is not a string"
                   field)
            | None ->
              invalid_arg
                (Printf.sprintf "client: response has no %s field (got: %s)"
                   field
                   (String.sub response 0 (Int.min 200 (String.length response)))))
        in
        (match output with
        | None -> print_string printed
        | Some path -> write_file path printed);
        match J.find doc "ok" with Some (J.Bool true) -> 0 | _ -> 1)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Submit one request to a running $(b,alice serve) daemon — over \
             a Unix socket or TCP — and print the response; exits 0 on an \
             $(b,ok) response, 1 otherwise")
    Term.(const run $ connect_arg $ request_file $ op $ redact_src $ config
          $ view $ extract $ output $ timeout $ retry_attempts $ retry_base
          $ retry_deadline $ stream $ diag_format)

(* ---------- cache maintenance ---------- *)

let cache_cmd =
  let gc_cmd =
    let socket =
      Arg.(value & opt (some string) None
           & info [ "socket"; "connect" ] ~docv:"ENDPOINT"
               ~doc:"GC the cache of the running $(b,alice serve) daemon at \
                     $(docv) — $(b,unix:PATH), $(b,tcp:HOST:PORT) or a bare \
                     socket path (the $(b,cache-gc) operation) instead of a \
                     local store; the server also re-enables writes it \
                     disabled after a write failure (W0703).")
    in
    let max_bytes =
      Arg.(value & opt (some int) None
           & info [ "max-bytes" ] ~docv:"N"
               ~doc:"Evict least-recently-used entries until the store \
                     fits $(docv) bytes; a negative $(docv) is refused. \
                     Omitted, a local gc only validates and \
                     quarantines; a server gc falls back to the \
                     server's configured budget.")
    in
    let run socket max_bytes cache_dir fmt =
      handle_errors ~fmt (fun () ->
          match socket with
          | Some sock ->
            let response =
              S.Client.one_shot ~socket:sock
                (S.Protocol.cache_gc_request ?max_bytes ())
            in
            print_endline response;
            (match J.find (J.parse response) "ok" with
            | Some (J.Bool true) -> 0
            | _ -> 1)
          | None ->
            let root =
              match cache_dir with
              | Some dir -> dir
              | None -> A.Disk_cache.default_root ()
            in
            let store = A.Disk_cache.create ~root () in
            let g = A.Disk_cache.gc ?max_bytes store in
            Format.printf
              "cache gc (%s): %d examined, %d quarantined, %d evicted, %d \
               bytes freed, %d bytes live@."
              root g.A.Disk_cache.gc_examined g.A.Disk_cache.gc_quarantined
              g.A.Disk_cache.gc_evicted g.A.Disk_cache.gc_freed_bytes
              g.A.Disk_cache.gc_live_bytes;
            0)
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:"Validate every entry of the persistent cache (corrupt \
               entries are quarantined for recompute-on-demand), evict \
               least-recently-used entries to a byte budget, and — on a \
               running server — re-enable writes disabled by an earlier \
               write failure")
      Term.(const run $ socket $ max_bytes $ cache_dir_flag $ diag_format)
  in
  Cmd.group
    (Cmd.info "cache" ~doc:"Persistent cache maintenance")
    [ gc_cmd ]

let () =
  let doc = "automatic eFPGA redaction (DAC'22 ALICE flow)" in
  let info = Cmd.info "alice" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ inspect_cmd; redact_cmd; sweep_cmd; advise_cmd; attack_cmd;
            simulate_cmd; bench_cmd; serve_cmd; client_cmd; cache_cmd ]))
