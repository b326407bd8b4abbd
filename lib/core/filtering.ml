(** Module filtering — Algorithm 1 of the paper.

    Starting from the elaborated design, the functional criterion scores
    every non-top module by the number of selected outputs it affects
    (via {!Alice_analysis.Dataflow}); the structural criterion then drops
    modules that cannot fit the eFPGA parameters (I/O pin limit). The
    survivors are the candidate redaction modules R. *)

module V = Alice_verilog
module A = Alice_analysis
module C = Alice_config

type candidate = {
  module_name : string;           (* specialized module name *)
  score : int;                    (* selected outputs affected *)
  io_pins : int;
  instances : V.Design.tree list; (* redactable instances of this module *)
}

type result = {
  candidates : candidate list;  (* the set R *)
  scores : (string * int) list; (* all scored modules, before filtering *)
  outputs_used : string list;
}

(** CheckParameters of Algorithm 1: the structural admissibility of one
    module against the flow parameters. *)
let check_parameters (cfg : C.Flow_config.t) ~(io_pins : int) : bool =
  io_pins <= cfg.C.Flow_config.max_io_pins && io_pins > 0

let run (df : A.Dataflow.t) (cfg : C.Flow_config.t) : result =
  let design = df.A.Dataflow.design in
  let outputs =
    match cfg.C.Flow_config.selected_outputs with
    | [] -> A.Dataflow.top_outputs df
    | outs -> outs
  in
  (* one backward cone per output serves the scores and the candidates *)
  let cones =
    List.map (fun output -> A.Dataflow.instances_affecting df ~output) outputs
  in
  let scores = A.Dataflow.module_scores df cones in
  (* only instances inside some protected output's cone are redaction
     grist: an instance of a scoring module that never reaches a selected
     output (e.g. the RX FIFO when only a TX flag is protected) is not a
     candidate *)
  let affecting = Hashtbl.create 32 in
  List.iter
    (List.iter (fun (n : V.Design.tree) -> Hashtbl.replace affecting n.path ()))
    cones;
  (* each module's affecting instances; [find_all] returns the last added
     first, so adding in reverse preorder reads back in preorder *)
  let by_module = Hashtbl.create 32 in
  List.iter
    (fun (n : V.Design.tree) ->
      if Hashtbl.mem affecting n.path then Hashtbl.add by_module n.module_name n)
    (List.rev df.A.Dataflow.instances);
  let candidates =
    List.filter_map
      (fun (module_name, score) ->
        if score < cfg.C.Flow_config.min_score then None
        else begin
          let em = V.Elaborate.find_emodule design module_name in
          let io_pins = V.Elaborate.io_pin_count em in
          if check_parameters cfg ~io_pins then
            Some
              { module_name; score; io_pins;
                instances = Hashtbl.find_all by_module module_name }
          else None
        end)
      scores
  in
  { candidates; scores; outputs_used = outputs }

let candidate_count (r : result) = List.length r.candidates

(** All redactable instances across R, the grist for Algorithm 2. *)
let candidate_instances (r : result) : V.Design.tree list =
  List.concat_map (fun c -> c.instances) r.candidates
