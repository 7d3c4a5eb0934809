(** The verdict explainer: run the termination front door and surface the
    {e cause} of a non-termination answer as diagnostics with
    machine-checkable witnesses.

    The dispatch mirrors {!Chase_termination.Decide.check} exactly — same
    classification, same procedures, same budgets — so the verdict here
    is the verdict the [termination] CLI prints.  What is added is the
    causal reading:

    - simple linear, diverging: the dangerous cycle of the (extended)
      dependency graph as a [W020] — on simple linear rules every such
      cycle is realizable (Theorem 1), which is why [W020] explains a
      verdict rather than merely flagging a risk;
    - linear, diverging: the confirmed pump of the critical-instance
      procedure (Theorem 2) as a [W021], with one lap replayed into a
      concrete fact chain and its realizing substitution
      ({!Chase_acyclicity.Critical_linear.realize});
    - guarded, diverging: the recurring cloud type along a guard chain
      (Theorem 4) as a [W021] with a guard-chain witness;
    - anything else (terminating, unknown, unguarded, restricted): the
      verdict alone — no diagnostic is fabricated without a witness.

    Consequently a [Diverges] answer for a (simple) linear or guarded set
    always comes with exactly one warning whose witness realizes it, and
    a [Terminates]/[Unknown] answer comes with none — the agreement
    property the test suite checks over seeded rule sets. *)

open Chase_logic

type t = {
  verdict : Chase_termination.Verdict.t;
  diagnostics : Diagnostic.t list;
}

val check :
  ?config:Chase_engine.Engine.config ->
  ?standard:bool ->
  ?budget:int ->
  variant:Chase_engine.Variant.t ->
  (Tgd.t * int) list ->
  t
(** [config] is the base engine configuration of every chase run, as in
    {!Chase_termination.Decide.check}; [standard] (default true) includes
    the constants 0, 1 in the critical instance; [budget] bounds the guarded forest search (default
    {!Chase_termination.Guarded.default_budget}). *)
