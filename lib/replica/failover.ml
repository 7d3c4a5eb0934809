(** Client-side failover across a replicated pair (or chain): try each
    server in order, distinguish {e dead} (connection attempts
    exhausted) from {e standby} (the structured ["standby: …"]
    refusal), and — when allowed — promote the first live standby
    found and re-send the request to it.

    Safe for the same reason single-server retries are safe: requests
    are idempotent by key, and a durable request acknowledged by the
    dead primary was shipped to the standby before the ack, so the
    promoted standby re-derives the {e same} response bytes (boot
    recovery re-runs from step zero).  An unacknowledged request was
    never promised to anyone, and simply runs fresh on the new
    primary.

    Streaming doubles as liveness: with [rcv_timeout] set the caller's
    progress frames bound how long a silent, wedged primary can hold
    the client; a timeout is a retryable failure that falls through to
    the next server. *)

module Proto = Chase_service.Proto
module Client = Chase_service.Client

type outcome = {
  server : string;  (** the socket that served the final response *)
  promoted : bool;  (** this call promoted it first *)
  failovers : int;  (** servers given up on before this one *)
  response : Proto.response;  (** always [Proto.Ok_response] *)
}

type failure =
  | Rejected of { server : string; response : Proto.response }
      (** a live primary definitively refused the request *)
  | All_down of (string * string) list
      (** per-server last error, in the order tried *)

let pp_failure fm = function
  | Rejected { server; response } ->
    Fmt.pf fm "%s rejected: %a" server Proto.pp_response response
  | All_down log ->
    Fmt.pf fm "no server answered:@ %a"
      (Fmt.list ~sep:Fmt.semi (fun fm (s, e) -> Fmt.pf fm "%s: %s" s e))
      log

let is_standby_refusal = function
  | Proto.Server_error msg ->
    String.length msg >= 8 && String.sub msg 0 8 = "standby:"
  | _ -> false

(* Send [promote] with a short retry budget of its own. *)
let try_promote ?(seed = 0) ~socket () =
  match
    Client.call_retry ~attempts:3 ~seed ~socket
      (Proto.request ~id:"promote" Proto.Promote)
  with
  | Ok (Proto.Ok_response _) -> true
  | Ok _ | Error _ -> false

let call ?(attempts_per_server = 3) ?(base_delay = 0.05) ?(max_delay = 2.0)
    ?(seed = 0) ?(promote = true) ?on_progress
    ?(on_event = fun (_ : string) -> ()) ~servers req =
  let rec go failovers log = function
    | [] -> Error (All_down (List.rev log))
    | socket :: rest -> (
      let attempt () =
        Client.call_retry ~attempts:attempts_per_server ~base_delay ~max_delay
          ~seed ?on_progress ~socket req
      in
      match attempt () with
      | Ok response -> Ok { server = socket; promoted = false; failovers; response }
      | Error (Client.Rejected resp) when is_standby_refusal resp ->
        if promote && try_promote ~seed ~socket () then begin
          on_event (Fmt.str "promoted %s" socket);
          (* A standby refusal after an acknowledged promote is a stale
             answer from the promotion window, not a verdict: back off
             and re-send, within the same attempt budget. *)
          let rec resend k =
            match attempt () with
            | Ok response ->
              Ok { server = socket; promoted = true; failovers; response }
            | Error (Client.Rejected resp)
              when is_standby_refusal resp && k + 1 < attempts_per_server ->
              on_event (Fmt.str "%s still refusing after promote" socket);
              Thread.delay
                (Float.min max_delay (base_delay *. Float.pow 2. (float_of_int k)));
              resend (k + 1)
            | Error (Client.Rejected resp) ->
              Error (Rejected { server = socket; response = resp })
            | Error (Client.Gave_up { last; _ }) ->
              on_event (Fmt.str "%s: %s" socket last);
              go (failovers + 1) ((socket, last) :: log) rest
          in
          resend 0
        end
        else begin
          on_event (Fmt.str "%s is a standby" socket);
          go (failovers + 1) ((socket, "standby") :: log) rest
        end
      | Error (Client.Rejected resp) ->
        Error (Rejected { server = socket; response = resp })
      | Error (Client.Gave_up { last; _ }) ->
        on_event (Fmt.str "%s: %s" socket last);
        go (failovers + 1) ((socket, last) :: log) rest)
  in
  go 0 [] servers
