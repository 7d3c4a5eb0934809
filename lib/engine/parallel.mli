(** The multicore matching plane: a pool of OCaml 5 domains that fans a
    batch of independent discovery events across cores and hands the
    results back in event order.

    The pool is deliberately {e not} a general scheduler.  The chase
    engine's parallelism has one shape — per engine step, a batch of
    (rule, seed fact) trigger-discovery events, each reading the frozen
    post-step instance and producing a substitution list — and the pool
    exposes exactly that: {!map} runs one batch, work-stealing event
    indices off a shared atomic counter, and returns [results.(i) = f i]
    positionally.  Which domain computed which event is invisible in the
    result, so the caller's merge order (and therefore the chase event
    order, journal bytes included) is deterministic by construction; the
    freeze–shard–merge doctrine is DESIGN.md §3.10.

    Worker domains block on a condition variable between batches (no
    spinning) and are joined by {!shutdown}; a pool is cheap enough to
    create per chase run.  Faults: an armed {!Faults.Parallel_delays}
    entry makes a domain sleep before every event it claims — the
    determinism battery's scheduling perturbation.

    How many domains a chase uses is a field of its run configuration
    ([Engine.config.domains]: the CLIs' [--domains], or [CHASE_DOMAINS]
    through [Engine.default_config]); the engine creates a pool of that
    size per run. *)

type t
(** A pool of [domains] cooperating domains: the calling domain (index
    0, which participates in every batch) plus [domains - 1] spawned
    workers. *)

val create : domains:int -> t
(** [create ~domains] spawns the workers.  [domains < 1] is an error;
    [domains = 1] is a degenerate pool whose {!map} runs inline.  If the
    runtime refuses a spawn (domain limit), the pool degrades to the
    workers it got — {!map} stays correct, only less parallel. *)

val size : t -> int
(** The number of domains the pool actually has, caller included. *)

val map : t -> int -> (int -> 'a) -> 'a array
(** [map t n f] computes [|f 0; …; f (n-1)|], each call on some domain
    of the pool, and returns when {e all} are done.  [f] must be safe to
    run on any domain concurrently with the other calls (the engine
    passes read-only matching against a frozen instance).  If any call
    raises, the batch still completes and the first exception is
    re-raised in the caller.  Batches do not overlap: [map] is not
    itself re-entrant — one caller per pool. *)

val shutdown : t -> unit
(** Stop and join every worker domain.  Idempotent.  After [shutdown],
    {!map} raises [Invalid_argument]. *)

(** {1 Pool effort accounting} *)

type stats = {
  domains : int;  (** pool size, caller included *)
  batches : int;  (** {!map} calls served *)
  events : int array;  (** events computed per domain (index 0 = caller) *)
  steals : int array;
      (** events a domain claimed off another domain's round-robin
          share — the work-stealing imbalance measure *)
  busy : float array;  (** in-batch seconds per domain *)
  wall : float;  (** total wall-clock seconds spent inside {!map} *)
}

val stats : t -> stats
(** Snapshot of the pool's counters.  Call between batches; a snapshot
    taken mid-batch may lag the domains still draining it. *)

val live_domains : unit -> int
(** Process-wide count of worker domains spawned by {!create} and not
    yet joined by {!shutdown} — the leak detector the cancellation tests
    assert against. *)

(** {1 Domain-count validation} *)

val parse_domains : string -> (int, string) result
(** Strict validation for CLI surfaces: a positive decimal integer. *)
