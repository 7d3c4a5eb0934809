(** The full termination portfolio for a rule set: classification, all
    acyclicity conditions, per-variant verdicts, and critical-instance
    chase statistics — the CLI's [--report] mode and a single entry point
    for downstream tooling. *)

open Chase_logic
open Chase_engine
open Chase_classes

type acyclicity = {
  richly_acyclic : bool;
  weakly_acyclic : bool;
  jointly_acyclic : bool;
  super_weakly_acyclic : bool;  (** Marnette's super-weak acyclicity *)
  stratified : bool;  (** every may-trigger stratum weakly acyclic *)
  mfa : bool option;  (** [None] when the MFA chase hit its budget *)
}

type chase_stats = {
  status : Engine.status;
  facts : int;
  triggers : int;
  max_depth : int;
  nulls : int;
}

type t = {
  rules : Tgd.t list;
  cls : Classify.cls;
  single_head : bool;
  full : bool;
  acyclicity : acyclicity;
  oblivious : Verdict.t;
  semi_oblivious : Verdict.t;
  restricted : Verdict.t;
  critical_run : chase_stats;
}

val build : ?config:Engine.config -> ?budget:int -> Tgd.t list -> t
(** [config] (default {!Engine.default_config}) is the base of every chase
    the portfolio runs: MFA, the three verdicts and the critical-instance
    statistics run. *)

val pp : Format.formatter -> t -> unit
