(** Termination for linear TGDs — Theorem 2, via the critical
    pattern-transition procedure of {!Chase_acyclicity.Critical_linear}.
    Divergence verdicts carry a concretely confirmed pumping cycle. *)

val check :
  ?config:Chase_engine.Engine.config ->
  ?standard:bool ->
  variant:Chase_engine.Variant.t ->
  Chase_logic.Tgd.t list ->
  Verdict.t
(** [config] is the base of the sanity chase of the critical instance.
    @raise Invalid_argument if the set is not linear, or for the
    restricted variant. *)
