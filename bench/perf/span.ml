(* In-memory spans for the traced run. Disabled (the default) a span is
   one branch around the call. Enabled, every span is kept until the
   run writes them out as Chrome trace-event JSON, and its self time —
   its duration minus the time its child spans cover — is summed per
   span name. Nesting is tracked on the calling thread's stack, so
   nested spans must come from one thread; concurrent threads record
   flat [leaf] spans. *)

type event = { name : string; tid : int; request : int; ts : float; dur : float }

let enabled = ref false

(* The request the main thread is serving: nested spans carry it, so a
   request's spans share one identifier. *)
let request = ref 0
let origin = ref 0.0
let mu = Mutex.create ()
let events : event list ref = ref []
let self_s : (string, float) Hashtbl.t = Hashtbl.create 16
let stack : float ref list ref = ref []

(* Start tracing afresh: spans of an earlier traced pass are dropped. *)
let enable () =
  Mutex.protect mu (fun () ->
      events := [];
      Hashtbl.reset self_s;
      stack := []);
  origin := Unix.gettimeofday ();
  enabled := true

let disable () = enabled := false

let record name ~request ~start ~dur ~self =
  Mutex.protect mu (fun () ->
      events :=
        { name; tid = Thread.id (Thread.self ()); request; ts = start; dur } :: !events;
      Hashtbl.replace self_s name
        (self +. Option.value (Hashtbl.find_opt self_s name) ~default:0.0))

(* [with_ name f] runs [f] inside a span called [name]. *)
let with_ (name : string) (f : unit -> 'a) : 'a =
  if not !enabled then f ()
  else begin
    let children = ref 0.0 in
    stack := children :: !stack;
    let start = Unix.gettimeofday () in
    let finish () =
      let dur = Unix.gettimeofday () -. start in
      stack := List.tl !stack;
      (match !stack with parent :: _ -> parent := !parent +. dur | [] -> ());
      record name ~request:!request ~start ~dur ~self:(dur -. !children)
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* A childless span of request [request], measured by the caller; safe
   from any thread. *)
let leaf (name : string) ~(request : int) ~(start : float) ~(stop : float) : unit =
  if !enabled then
    let dur = stop -. start in
    record name ~request ~start ~dur ~self:dur

(* Summed self time of every span called [name], in seconds. *)
let self_time (name : string) : float =
  Mutex.protect mu (fun () ->
      Option.value (Hashtbl.find_opt self_s name) ~default:0.0)

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Write every recorded span as a Chrome trace-event document
   (complete "X" events, microseconds from the start of tracing). *)
let write_chrome (path : string) : unit =
  let module J = Alice_config.Json_lite in
  let us t = J.Float (Float.round (t *. 1e6 *. 1000.0) /. 1000.0) in
  let pid = Unix.getpid () in
  let evs =
    List.rev_map
      (fun e ->
        J.Obj
          [ ("name", J.String e.name);
            ("cat", J.String (layer_of e.name));
            ("ph", J.String "X");
            ("ts", us (e.ts -. !origin));
            ("dur", us e.dur);
            ("pid", J.Int pid);
            ("tid", J.Int e.tid);
            ("args", J.Obj [ ("request", J.Int e.request) ]) ])
      (Mutex.protect mu (fun () -> !events))
  in
  let doc =
    J.Obj [ ("traceEvents", J.List evs); ("displayTimeUnit", J.String "ms") ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (J.to_string doc);
      output_char oc '\n')
