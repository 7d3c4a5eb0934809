(** The chase daemon: Unix-domain-socket server multiplexing
    decide / chase / lint / query requests over the {!Proto} frame
    protocol, with admission control (bounded queue, load-shedding),
    a shared budget {!Pool} (backpressure), an idempotency {!Cache}
    (single-flight), a durable {!Spool} with boot recovery, and chaos
    hooks for the fault-injection harness. *)

type config = {
  socket : string;
  workers : int;
  queue_cap : int;
  pool_total : int;  (** shared trigger-credit pot *)
  per_request_cap : int;
  min_grant : int;
  cache_capacity : int;
  spool_dir : string option;  (** durable requests live here *)
  default_timeout : float;  (** per-request deadline when unspecified *)
  max_frame : int;
  read_timeout : float;  (** slow-loris bound on mid-frame stalls *)
  metrics : string option;  (** JSONL metrics file (chase-metrics/1) *)
  trace_shard : string option;
      (** per-process trace shard (JSONL of {!Chase_obs.Tracectx}
          records) — the server's contribution to a distributed trace,
          joined offline by [chasec trace-merge] *)
  flight : string option;
      (** flight-recorder dump file: the in-memory ring is appended
          here on crash-recovery boots, watchdog stalls, exhaustion
          and sheds *)
  faults : Chase_engine.Faults.service_fault list;
  engine : Chase_engine.Engine.config;
      (** the base run configuration of every request's chases (the
          daemon's [--domains]); each request sets variant and limits *)
  on_durable :
    ([ `Req | `Resp ] ->
    key:string ->
    trace:string option ->
    string ->
    unit)
    option;
      (** called with the exact bytes just made durable in the spool,
          after the local fsync and before the client is answered — the
          replication shipper's semi-synchronous hook.  [trace] is the
          server-side span context of the request being shipped, so the
          replica's spans can nest under it *)
}

val config :
  ?workers:int ->
  ?queue_cap:int ->
  ?pool_total:int ->
  ?per_request_cap:int ->
  ?min_grant:int ->
  ?cache_capacity:int ->
  ?spool_dir:string ->
  ?default_timeout:float ->
  ?max_frame:int ->
  ?read_timeout:float ->
  ?metrics:string ->
  ?trace_shard:string ->
  ?flight:string ->
  ?faults:Chase_engine.Faults.service_fault list ->
  ?engine:Chase_engine.Engine.config ->
  ?on_durable:
    ([ `Req | `Resp ] -> key:string -> trace:string option -> string -> unit) ->
  string ->
  config
(** [config socket] with serviceable defaults (4 workers, queue of 16,
    400k-credit pool capped at 100k per request, and
    {!Chase_engine.Engine.default_config} as the run configuration). *)

type t

val start : config -> t
(** Bind, run boot recovery (complete every spooled request that has no
    response yet, resuming its journal), then start accepting. *)

val stop : ?graceful:bool -> t -> unit
(** [graceful] (default): stop accepting, drain the queue, answer
    everything accepted, write final metric summaries, remove the
    socket.  [~graceful:false] is {!kill}. *)

val kill : t -> unit
(** Simulated SIGKILL for in-process crash drills: cancel every
    in-flight run, close every fd, abandon the queue, write nothing
    more (no responses, no spool [.resp], no metric summaries). *)

val wait : t -> unit
(** Block until the server has fully stopped (either way). *)

val stats : t -> (string * int) list
(** Live counters, sorted by name — also served by the [stats] op. *)

val socket : t -> string
val is_stopping : t -> bool
