(** Model-faithful acyclicity (Cuenca Grau et al., KR 2012): chase the
    critical instance with the skolem chase and fail on the first
    {e cyclic} functional term (a skolem symbol nested within itself).
    The strongest standard sufficient condition for semi-oblivious chase
    termination:  WA ⊆ JA ⊆ MFA ⊆ CT^so. *)

type answer =
  [ `Mfa  (** the critical chase completed with no cyclic term *)
  | `Not_mfa of string  (** a cyclic functional term, pretty-printed *)
  | `Unknown of string  (** budget exhausted *)
  ]

val default_budget : int

type 'a check :=
  ?config:Chase_engine.Engine.config ->
  ?standard:bool ->
  ?budget:int ->
  Chase_logic.Tgd.t list ->
  'a

val check : answer check
(** One semi-oblivious {!Chase_engine.Engine.run} of the critical
    instance ([standard], default false, adds 0 and 1) under [config]
    with its variant and limits replaced: at most [budget] triggers,
    cancelled at the first cyclic term. *)

val is_mfa : bool check
