(** Protocol client (see the interface). *)

module J = Alice_config.Json_lite
module Fi = Alice_fault.Fault

exception Connection_error of string

type t = {
  ic : in_channel;
  oc : out_channel;
  timeout_s : float;
  faults : Fi.t;
}

let connect ?(timeout_s = 60.0) ?faults ~socket () : t =
  (* a zero receive timeout means none at all *)
  if not (Float.is_finite timeout_s && timeout_s > 0.0) then
    invalid_arg
      (Printf.sprintf "client: the timeout must be positive and finite, got %g"
         timeout_s);
  let faults = match faults with Some f -> f | None -> Fi.global () in
  (match Fi.check faults "sock.connect" with
  | None -> ()
  | Some (Fi.Delay s) -> Unix.sleepf s
  | Some _ -> raise (Connection_error "injected connect failure"));
  (* the server may refuse-and-close before we write (admission
     control); a later send must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let ep =
    try Endpoint.parse socket
    with Invalid_argument msg -> raise (Connection_error msg)
  in
  let addr =
    try Endpoint.sockaddr ep
    with Invalid_argument msg -> raise (Connection_error msg)
  in
  match
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
  with
  | exception Unix.Unix_error (e, _, _) ->
    raise (Connection_error (Unix.error_message e))
  | fd -> (
    try
      Unix.connect fd addr;
      (* single-line round trips must not sit out a Nagle window *)
      Endpoint.set_nodelay fd;
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s
       with Unix.Unix_error _ -> ());
      { ic = Unix.in_channel_of_descr fd;
        oc = Unix.out_channel_of_descr fd;
        timeout_s;
        faults }
    with
    | Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise
        (Connection_error
           (Printf.sprintf "cannot reach %s: %s" (Endpoint.to_string ep)
              (Unix.error_message e)))
    | e ->
      (* anything else between socket() and the channel wrap (injected
         or not) must not leak the descriptor either *)
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e)

(* A non-terminal frame of a streaming response; everything else —
   plain responses, errors, terminal "done" frames — concludes the
   exchange. *)
let is_row_event (resp : string) : bool =
  match J.parse resp with
  | exception _ -> false
  | j -> (
    match J.find j "event" with Some (J.String "row") -> true | _ -> false)

let rpc_gen (t : t) (line : string) (on_event : (string -> unit) option) :
    string =
  (match Fi.check t.faults "client.rpc" with
  | None -> ()
  | Some (Fi.Delay s) -> Unix.sleepf s
  | Some _ -> raise (Connection_error "injected rpc failure"));
  (* a send failure is not yet fatal: a server that refused this
     connection at the door wrote its error response and closed, so the
     line we came for may still be waiting in the receive buffer *)
  let send_error =
    try
      output_string t.oc line;
      output_char t.oc '\n';
      flush t.oc;
      None
    with Sys_error msg | Unix.Unix_error (_, msg, _) -> Some msg
  in
  let rec recv () =
    match input_line t.ic with
    | response -> (
      match on_event with
      | Some f when is_row_event response ->
        f response;
        recv ()
      | _ -> response)
    | exception End_of_file -> (
      match send_error with
      | Some msg -> raise (Connection_error ("send failed: " ^ msg))
      | None ->
        raise
          (Connection_error "server closed the connection without a response"))
    | exception (Sys_error msg | Unix.Unix_error (_, msg, _)) ->
      raise (Connection_error ("receive failed: " ^ msg))
    | exception Sys_blocked_io ->
      (* the receive timeout expired: the read came back EAGAIN *)
      raise
        (Connection_error
           (Printf.sprintf "receive timed out: no response within %gs"
              t.timeout_s))
  in
  recv ()

let rpc (t : t) (line : string) : string = rpc_gen t line None

let rpc_stream (t : t) ~(on_event : string -> unit) (line : string) : string =
  rpc_gen t line (Some on_event)

(* the fd is closed once, through the out channel *)
let close (t : t) : unit = close_out_noerr t.oc

(* ---------- retry policy ---------- *)

type retry = {
  attempts : int;
  base_delay_s : float;
  max_delay_s : float;
  deadline_s : float option;
  seed : int;
}

let default_retry =
  { attempts = 5; base_delay_s = 0.05; max_delay_s = 1.6; deadline_s = None;
    seed = 0 }

(* Uniform-looking jitter in [0,1] from a seeded hash — pure, so the
   whole backoff schedule is a function of (policy, seed): same seed,
   same delays, which is what makes retry timing testable. *)
let jitter ~(seed : int) ~(attempt : int) : float =
  let h = Digest.string (Printf.sprintf "alice-retry %d %d" seed attempt) in
  let hi = Char.code h.[0] and lo = Char.code h.[1] in
  float_of_int ((hi lsl 8) lor lo) /. 65535.0

let min_base_delay_s = 0.001

let delays (r : retry) : float list =
  (* decorrelated-jitter backoff: each delay is drawn between the base
     and min(cap, 3 * previous delay), so consecutive retries neither
     march in lockstep (thundering herd) nor grow without bound. The
     base is floored at 1 ms — with a zero (or negative) base every
     delay collapses to 0 and the "backoff" is a hot loop hammering a
     server that refused us precisely because it is overloaded *)
  let base = Float.max min_base_delay_s r.base_delay_s in
  let rec go attempt prev acc =
    if attempt >= r.attempts - 1 then List.rev acc
    else
      let hi = Float.max base (Float.min r.max_delay_s (3.0 *. prev)) in
      let d = base +. (jitter ~seed:r.seed ~attempt *. (hi -. base)) in
      go (attempt + 1) d (d :: acc)
  in
  go 0 base []

(* Retry exactly the failures that mean "later is different": admission
   refusals and drain refusals. Anything else — flow errors, bad
   requests — would fail identically on every attempt. *)
let retryable_response (resp : string) : bool =
  match J.parse resp with
  | exception _ -> false
  | j -> (
    match J.find j "ok" with
    | Some (J.Bool false) -> (
      match J.find j "error" with
      | Some err -> (
        match J.find err "code" with
        | Some (J.String ("E1003" | "E1004")) -> true
        | _ -> false)
      | None -> false)
    | _ -> false)

let one_shot ?timeout_s ?retry ?faults ?on_event ~socket (line : string) :
    string =
  (* once a streaming attempt has delivered row events, a retry would
     replay them to the caller; fail conclusively instead *)
  let events_emitted = ref false in
  let on_event =
    Option.map
      (fun f resp ->
        events_emitted := true;
        f resp)
      on_event
  in
  let attempt_once () =
    let t = connect ?timeout_s ?faults ~socket () in
    Fun.protect
      ~finally:(fun () -> close t)
      (fun () -> rpc_gen t line on_event)
  in
  match retry with
  | None -> attempt_once ()
  | Some r ->
    let started = Unix.gettimeofday () in
    let give_up = function
      | `Resp resp -> resp
      | `Err msg -> raise (Connection_error msg)
    in
    let rec attempt pending_delays =
      let outcome =
        match attempt_once () with
        | resp -> if retryable_response resp then `Retry (`Resp resp) else `Ok resp
        | exception Connection_error msg -> `Retry (`Err msg)
      in
      match outcome with
      | `Ok resp -> resp
      | `Retry last when !events_emitted -> give_up last
      | `Retry last -> (
        match pending_delays with
        | [] -> give_up last
        | d :: rest ->
          let blows_deadline =
            match r.deadline_s with
            | None -> false
            | Some cap -> Unix.gettimeofday () -. started +. d > cap
          in
          if blows_deadline then give_up last
          else begin
            Unix.sleepf d;
            attempt rest
          end)
    in
    attempt (delays r)
