(** The Σ-lint driver: run the batteries over a parsed program and render
    the findings.

    The {e default battery} is purely static and cheap: schema/arity
    consistency ([E001]), rule hygiene ([W010], [I031], [I032]) and, when
    the program carries a database, reachability ([I030], [I033]).  The
    {e explain battery} ([W020], [W021]) additionally runs the
    termination front door per requested chase variant and attaches the
    causal witness of every divergence verdict — it is opt-in because a
    deliberately diverging rule set (half the interesting corpus) is not
    thereby ill-formed.

    An [E001] is a hard stop: the deeper passes assume a consistent
    schema, so when the schema check fails only its diagnostics are
    reported. *)

open Chase_logic

type source = {
  rules : (Tgd.t * int) list;
  egds : (Egd.t * int) list;
  facts : (Atom.t * int) list;
}

val of_program : Parser.located_program -> source

type report = {
  diagnostics : Diagnostic.t list;  (** sorted by {!Diagnostic.compare_for_report} *)
  verdicts : (Chase_engine.Variant.t * Chase_termination.Verdict.t) list;
      (** one per explained variant, in request order *)
  analysis : Analyze.t option;
      (** the Σ-flow summary, when the analyze battery ran *)
}

val analyze :
  ?explain:Chase_engine.Variant.t list ->
  ?dataflow:bool ->
  ?config:Chase_engine.Engine.config ->
  ?standard:bool ->
  ?budget:int ->
  source ->
  report
(** Run the default battery, plus the explain battery for each variant in
    [explain] (default none), plus — when [dataflow] (default false) —
    the Σ-flow analyze battery ([I034]/[I035] and the
    {!field-report.analysis} summary).  [config]/[standard]/[budget]
    parameterize the explain battery as in {!Explain.check}. *)

val errors : report -> int
val warnings : report -> int
val infos : report -> int

val exit_code : report -> int
(** 2 when any error, 1 when any warning, 0 otherwise — infos never
    gate. *)

val summary : report -> string
(** ["clean"], or e.g. ["1 error, 2 warnings, 1 info"]. *)

val pp_human : ?file:string -> Format.formatter -> report -> unit
(** One line per diagnostic, one line per explained verdict, and a
    closing summary line. *)

val to_json : ?file:string -> report -> Chase_obs.Jsonv.t
