(** The termination front door: classify the rule set and dispatch to the
    strongest applicable procedure.

    (Semi-)oblivious variants: simple linear → Theorem 1 acyclicity;
    linear → Theorem 2 critical procedure; guarded → Theorem 4 cloud
    types; unguarded → sound sufficient conditions (rich acyclicity for
    o; weak, then joint acyclicity for so) and otherwise the budgeted
    chase simulation, where [Unknown] is a possible, honest answer.
    Restricted variant: {!Restricted.check}. *)

val check :
  ?config:Chase_engine.Engine.config ->
  ?standard:bool ->
  ?budget:int ->
  ?limits:Chase_engine.Limits.t ->
  ?watchdog:Chase_engine.Watchdog.t ->
  ?obs:Chase_obs.Obs.t ->
  variant:Chase_engine.Variant.t ->
  Chase_logic.Tgd.t list ->
  Verdict.t
(** [config] (default {!Chase_engine.Engine.default_config}) is the base
    configuration of every chase the chosen procedure runs: its matcher,
    domain count and pruning switch carry through, while each procedure
    sets its own variant and limits.  [limits] overrides the
    budget-derived defaults of every budgeted
    procedure (adding e.g. a wall-clock deadline or a cancellation
    token); [watchdog] streams progress snapshots of the
    chase-simulation fallback.  [obs] wraps the chosen procedure in a
    [decide:<proc>] span, records its wall time per procedure
    ([decide.check_s]), and flows into the budgeted procedures' chase
    runs and the guarded pump search. *)
