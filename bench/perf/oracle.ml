(* Output oracle: a redaction is correct when its programmed view
   behaves like the original design and every eFPGA's bitstream is the
   configuration of the fabric implementation selection chose.

   The behavioural check parses, elaborates and synthesizes the
   programmed view, then simulates it in lockstep with the synthesized
   original: [cycles] cycles of seeded random stimulus on every original
   input, with [rst] held released, comparing every original output
   after each cycle. *)

module V = Alice_verilog
module N = Alice_netlist
module F = Alice_fabric
module A = Alice
module B = Alice_benchmarks.Suite

type reference = { name : string; top : string; circuit : N.Circuit.t }

let reference (b : B.benchmark) : reference =
  { name = b.B.name; top = b.B.top; circuit = N.Synth.synthesize (B.elaborate b) }

let cycles = 64

let simulate ~(seed : int) (r : reference) (verilog : string) : (unit, string) result =
  match
    N.Synth.synthesize
      (V.Elaborate.elaborate ~top:r.top
         (V.Parser.parse ~file:(r.name ^ "_redacted.v") verilog))
  with
  | exception e ->
    Error (Printf.sprintf "%s: programmed view does not build: %s" r.name
             (Printexc.to_string e))
  | redone ->
    let sa = N.Simulate.create r.circuit and sb = N.Simulate.create redone in
    let st = Random.State.make [| seed; Hashtbl.hash r.name |] in
    let rec cycle c =
      if c > cycles then Ok ()
      else begin
        List.iter
          (fun (pname, nets) ->
            let bits =
              if pname = "rst" then [| true |]
              else Array.init (Array.length nets) (fun _ -> Random.State.bool st)
            in
            N.Simulate.set_input_bits sa pname bits;
            N.Simulate.set_input_bits sb pname bits)
          r.circuit.N.Circuit.inputs;
        N.Simulate.step sa;
        N.Simulate.step sb;
        N.Simulate.eval sa;
        N.Simulate.eval sb;
        let mismatch =
          List.find_opt
            (fun (oname, _) ->
              N.Simulate.read_output_bits sa oname
              <> N.Simulate.read_output_bits sb oname)
            r.circuit.N.Circuit.outputs
        in
        match mismatch with
        | Some (oname, _) ->
          Error (Printf.sprintf "%s: output %s differs at cycle %d" r.name oname c)
        | None -> cycle (c + 1)
      end
    in
    cycle 1

(* Each site's bitstream must be exactly the configuration of the
   implementation it stands for: the LUT truth tables of the chosen
   cluster's mapped netlist in placement order, over a chain as long as
   the fabric's. *)
let check_bitstreams (solution : A.Selection.solution) (red : A.Redact.redacted) :
    (unit, string) result =
  let efpgas = solution.A.Selection.efpgas in
  if List.length efpgas <> List.length red.A.Redact.sites then
    Error "site count differs from the selected eFPGA count"
  else
    List.fold_left2
      (fun acc (e : A.Selection.efpga_impl) (site : A.Redact.efpga_site) ->
        match acc with
        | Error _ -> acc
        | Ok () ->
          let impl = e.A.Selection.impl in
          let expected =
            F.Bitstream.generate impl.F.Size_search.placement e.A.Selection.mapped
          in
          let got = site.A.Redact.bitstream in
          if Array.length got <> F.Bitstream.length impl.F.Size_search.fabric then
            Error (Printf.sprintf "%s: bitstream length %d" site.A.Redact.efpga_name
                     (Array.length got))
          else if got <> expected then
            Error
              (Printf.sprintf "%s: %d bitstream bit(s) differ from the placed fabric"
                 site.A.Redact.efpga_name
                 (F.Bitstream.distance got expected))
          else Ok ())
      (Ok ()) efpgas red.A.Redact.sites

(* Both checks for an in-process redaction. *)
let check ~seed (r : reference) (solution : A.Selection.solution)
    (red : A.Redact.redacted) : (unit, string) result =
  match check_bitstreams solution red with
  | Error _ as e -> e
  | Ok () -> simulate ~seed r red.A.Redact.verilog
