(** The end-to-end ALICE flow (Figure 3): parse → elaborate → module
    filtering → cluster identification → eFPGA selection → redacted
    design generation. Phase wall-clock times are recorded, matching the
    columns of Table 2.

    Faults are isolated per phase (and, inside characterization, per
    cluster): an exception escaping a phase is recorded as a structured
    diagnostic and the phase degrades to an empty result, so the flow
    always completes and reports everything it found wrong. The only
    exceptions allowed out of {!run} are {!Alice_verilog.Loc.Error}
    (malformed input that leaves nothing to elaborate) and
    [Out_of_memory]. *)

module V = Alice_verilog
module A = Alice_analysis
module C = Alice_config
module D = Alice_diag.Diag
module Timebase = Alice_diag.Timebase

type phase_times = {
  filtering_s : float;   (* includes dataflow analysis, as in the paper *)
  clustering_s : float;
  selection_s : float;   (* includes all CreateEFPGA characterizations *)
}

type t = {
  config : C.Flow_config.t;
  ast : V.Ast.design;
  design : V.Elaborate.design;
  filtering : Filtering.result;
  clusters : Clustering.cluster list;
  characterized : Characterize.characterization list;
  selection : Selection.result;
  diags : D.t list;  (* everything recorded while the flow ran *)
  times : phase_times;
  char_stats : Characterize.stats;  (* characterization cache accounting *)
}

(** What to run the flow on. *)
type source =
  | Ast of V.Ast.design  (** an already parsed design *)
  | Text of { text : string; file : string option }
      (** Verilog source; parsed with error recovery, each syntax error
          an [E0102] diagnostic *)

(** One flow job: the source, its configuration, and an optional
    caller-owned diagnostic collector — the record form of the
    [?config ?diags ?file] optional-argument sprawl the deprecated
    wrappers used to carry. Consumed by {!Engine.run}. *)
type request = {
  source : source;
  config : C.Flow_config.t;
  diags : D.Collector.t option;
}

let request ?(config = C.Flow_config.default) ?diags source =
  { source; config; diags }

(* Record the phase wall clock into [record] even when the thunk raises,
   so a faulting phase still shows up in the timing columns. *)
let timed (record : float -> unit) (f : unit -> 'a) : 'a =
  let t0 = Timebase.now_s () in
  Fun.protect ~finally:(fun () -> record (Timebase.elapsed_since t0)) f

(* Elaboration failures leave nothing for later phases to work on, so
   they stay exceptional — but normalized to [Loc.Error] so callers have
   a single malformed-input escape to catch. *)
let elaborate_checked ?top (ast : V.Ast.design) : V.Elaborate.design =
  try V.Elaborate.elaborate ?top ast with
  | (V.Loc.Error _ | Out_of_memory) as e -> raise e
  | Stack_overflow ->
    raise (V.Loc.Error
             (V.Loc.none, "elaboration overflowed the stack \
                           (recursive instantiation?)"))
  | Invalid_argument msg | Failure msg ->
    raise (V.Loc.Error (V.Loc.none, "elaboration failed: " ^ msg))
  | Not_found ->
    raise (V.Loc.Error (V.Loc.none, "elaboration failed: unresolved reference"))
  | e ->
    raise (V.Loc.Error
             (V.Loc.none, "elaboration failed: " ^ Printexc.to_string e))

(* Fault isolation: run a phase, recording an exception that escapes
   it into [collector] as a classified diagnostic and returning the
   phase's degraded (empty) value. *)
let guard (collector : D.Collector.t) ~phase ~degraded f =
  try f () with
  | Out_of_memory -> raise Out_of_memory
  | e ->
    D.Collector.add collector
      { (D.of_exn e) with D.context = [ ("phase", phase) ] };
    degraded

(* A selected output the top module lacks would silently empty the
   candidate set, and the run would end blaming the design; it is a
   configuration error. *)
let check_selected_outputs (config : C.Flow_config.t)
    (design : V.Elaborate.design) : unit =
  let top = V.Elaborate.find_emodule design design.V.Elaborate.d_top in
  List.iter
    (fun output ->
      if
        not
          (List.exists
             (fun (p : V.Elaborate.eport) ->
               p.pname = output && p.dir <> V.Ast.Input)
             top.V.Elaborate.em_ports)
      then
        invalid_arg
          (Printf.sprintf "selected_outputs: %s is not an output of %s" output
             design.V.Elaborate.d_top))
    config.C.Flow_config.selected_outputs

(* the source — its text and file name, or the marshalled AST — and
   the fields the front end reads *)
let front_key (config : C.Flow_config.t) (source : source) : string =
  Alice_parallel.Memo.digest
    (source, C.Flow_config.(digest "front" [ Front ] (classify config)))

(* Parse → elaborate → dataflow → filtering → clustering: everything
   before characterization, as one memoizable value. Its diagnostics
   are its own, for the caller to replay; a source that cannot be
   elaborated (or selects an output it lacks) reports its syntax errors
   to [collector] and raises, so it is never stored. [filtering_s] and
   [clustering_s] receive the phases' wall clock. *)
let front_end ~(collector : D.Collector.t) ~filtering_s ~clustering_s
    (config : C.Flow_config.t) (source : source) : Characterize.front =
  let own = D.Collector.create () in
  match
    let ast =
      match source with
      | Ast ast -> ast
      | Text { text; file } ->
        (* recovering front end: one pass reports every syntax error as
           an [E0102] diagnostic and the surviving modules continue *)
        let ast, errors = V.Parser.parse_with_recovery ?file text in
        List.iter
          (fun (loc, msg) ->
            D.Collector.add own (D.error ~loc ~code:"E0102" "%s" msg))
          errors;
        ast
    in
    let design = elaborate_checked ?top:config.C.Flow_config.top ast in
    check_selected_outputs config design;
    (ast, design)
  with
  | exception e ->
    List.iter (D.Collector.add collector) (D.Collector.list own);
    raise e
  | ast, design ->
    let filtering, df =
      timed (fun dt -> filtering_s := dt) (fun () ->
          guard own ~phase:"filtering"
            ~degraded:
              ( { Filtering.candidates = []; scores = []; outputs_used = [] },
                None )
            (fun () ->
              let df = A.Dataflow.build design in
              (Filtering.run df config, Some df)))
    in
    let clusters =
      timed (fun dt -> clustering_s := dt) (fun () ->
          match df with
          | None -> []  (* no dataflow graph: nothing to cluster *)
          | Some df ->
            guard own ~phase:"clustering" ~degraded:[] (fun () ->
                Clustering.run df config filtering))
    in
    { Characterize.ast; design; filtering; clusters;
      diags = D.Collector.list own }

let run_request ?(cache : Characterize.cache option)
    ?(attack_cache : Selection.Scorer.cache option) (req : request) : t =
  let config = req.config in
  let collector =
    match req.diags with Some c -> c | None -> D.Collector.create ()
  in
  let filtering_s = ref 0.0
  and clustering_s = ref 0.0
  and selection_s = ref 0.0 in
  let front =
    let compute () =
      front_end ~collector ~filtering_s ~clustering_s config req.source
    in
    match cache with
    | None -> compute ()
    | Some cache ->
      Characterize.front_stage cache ~key:(front_key config req.source)
        compute
  in
  List.iter (D.Collector.add collector) front.Characterize.diags;
  let { Characterize.ast; design; filtering; clusters; _ } = front in
  let empty_selection =
    { Selection.valid = []; solutions = 0; best = None;
      attack = Selection.Scorer.empty_stats }
  in
  let (characterized, char_stats), selection =
    timed (fun dt -> selection_s := dt) (fun () ->
        let characterized, char_stats =
          guard collector ~phase:"characterize"
            ~degraded:([], Characterize.empty_stats) (fun () ->
              Characterize.run_all_stats
                ?deadline_s:config.C.Flow_config.characterize_deadline_s
                ~jobs:config.C.Flow_config.jobs ?cache design config clusters)
        in
        (* per-cluster faults were captured as [Failed] outcomes and
           deadline skips as [Skipped] warnings; surface both on the
           flow result *)
        List.iter
          (fun (c : Characterize.characterization) ->
            match c.Characterize.outcome with
            | Characterize.Failed d | Characterize.Skipped d ->
              D.Collector.add collector d
            | Characterize.Implemented _ | Characterize.Infeasible _ -> ())
          characterized;
        let selection =
          guard collector ~phase:"selection" ~degraded:empty_selection
            (fun () ->
              let total_instances =
                List.length (Filtering.candidate_instances filtering)
              in
              Selection.run
                ~scorer:
                  (Selection.Scorer.of_config ?cache:attack_cache config)
                config characterized ~total_instances)
        in
        ((characterized, char_stats), selection))
  in
  { config; ast; design; filtering; clusters; characterized; selection;
    diags = D.Collector.list collector;
    times = { filtering_s = !filtering_s; clustering_s = !clustering_s;
              selection_s = !selection_s };
    char_stats }

(** Generate the redacted design for the flow's best solution. *)
let redact ?(view = Redact.Programmed) (flow : t) : Redact.redacted option =
  Option.map
    (fun solution -> Redact.run ~view flow.design flow.ast solution)
    flow.selection.Selection.best

(** Count of valid eFPGA implementations (the "# valid eFPGAs" column). *)
let valid_efpga_count (flow : t) = List.length flow.selection.Selection.valid

(* The one mapping from an exception that escaped a flow to its layer's
   diagnostic code, shared by the CLI and the server; [None] means an
   internal failure. *)
let classify_exn : exn -> D.t option = function
  | V.Loc.Error (loc, msg) -> Some (D.error ~loc ~code:"E0100" "%s" msg)
  | C.Yaml_lite.Parse_error (line, msg) ->
    Some
      (D.error ~code:"E0601" "configuration parse error at line %d: %s" line
         msg)
  | Alice_netlist.Synth.Synthesis_error msg ->
    Some (D.error ~code:"E0201" "synthesis error: %s" msg)
  | Alice_netlist.Simulate.Combinational_cycle msg ->
    Some (D.error ~code:"E0202" "combinational cycle: %s" msg)
  | Redact.Redaction_error msg ->
    Some (D.error ~code:"E0800" "redaction error: %s" msg)
  | Invalid_argument msg -> Some (D.error ~code:"E0602" "%s" msg)
  | Sys_error msg -> Some (D.error ~code:"E0001" "%s" msg)
  | _ -> None
