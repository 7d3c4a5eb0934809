(** Client-side failover across a replicated pair: try each server in
    order; a dead server (retries exhausted) falls through to the
    next, a standby's structured refusal triggers promotion (when
    [promote], the default) followed by a re-send; a standby refusal
    that still arrives after the promote was acknowledged is retried
    with backoff within [attempts_per_server].  Safe because
    requests are idempotent by key and acknowledged durable requests
    were shipped before their ack — the promoted standby re-derives
    byte-identical responses. *)

type outcome = {
  server : string;  (** the socket that served the final response *)
  promoted : bool;  (** this call promoted it first *)
  failovers : int;  (** servers given up on before this one *)
  response : Chase_service.Proto.response;  (** always [Ok_response] *)
}

type failure =
  | Rejected of {
      server : string;
      response : Chase_service.Proto.response;
    }  (** a live server definitively refused the request *)
  | All_down of (string * string) list
      (** per-server last error, in the order tried *)

val pp_failure : Format.formatter -> failure -> unit

val call :
  ?attempts_per_server:int ->
  ?base_delay:float ->
  ?max_delay:float ->
  ?seed:int ->
  ?promote:bool ->
  ?on_progress:(Chase_service.Proto.progress -> unit) ->
  ?on_event:(string -> unit) ->
  servers:string list ->
  Chase_service.Proto.request ->
  (outcome, failure) result
(** [on_event] narrates failover decisions (promotions, servers given
    up on) for a verbose CLI. *)
