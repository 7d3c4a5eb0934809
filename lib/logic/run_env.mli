(** The environment spelling of the engine's run configuration, parsed
    once.  [CHASE_NAIVE], [CHASE_DOMAINS] and [CHASE_NO_PRUNE] select
    the naive matcher, the domain count and the switch-off of relevance
    pruning — the knobs of [make check-naive]/[check-parallel]/
    [check-pruned].  [Engine.default_config] and {!Hom.default_matcher}
    are computed from {!current}; nothing else reads the environment. *)

type t = {
  naive : bool;  (** [CHASE_NAIVE] is [1]/[true]/[yes]/[on] *)
  domains : int;  (** [CHASE_DOMAINS] if a positive integer, else [1] *)
  prune : bool;  (** false when [CHASE_NO_PRUNE] is [1]/[true]/[yes]/[on] *)
}

val parse : (string -> string option) -> t
(** Lenient: a malformed value means the default, never an error (the
    CLIs' [--domains] is the strict surface). *)

val current : t
(** [parse Sys.getenv_opt], evaluated once at start-up. *)
