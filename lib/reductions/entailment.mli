(** Atom entailment under TGDs, by chasing: D, Σ ⊨ ∃x̄ q iff the chase of
    D contains a homomorphic image of q.  Exact for full (Datalog) rules;
    in general a semi-decision with budget. *)

open Chase_logic

type answer =
  [ `Entailed
  | `Not_entailed
  | `Unknown of string
  ]

val default_budget : int

type 'a entails :=
  ?config:Chase_engine.Engine.config ->
  ?budget:int ->
  Tgd.t list ->
  Atom.t list ->
  Atom.t ->
  'a

val check : answer entails
(** The semi-oblivious chase of the database, under [config] (default
    {!Chase_engine.Engine.default_config}) with its variant and limits
    replaced. *)

val holds : bool entails

val holds_critical :
  ?config:Chase_engine.Engine.config ->
  ?standard:bool ->
  ?budget:int ->
  Tgd.t list ->
  Atom.t ->
  bool
(** Entailment from the critical database of the combined schema. *)
