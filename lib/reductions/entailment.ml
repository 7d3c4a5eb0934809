(** Atom entailment under TGDs, by chasing.

    [holds rules db query] asks whether every model of [db] and [rules]
    satisfies ∃x̄ [query] — equivalently, whether the chase of [db] (a
    universal model when it terminates) contains a homomorphic image of
    [query].  The query atom may contain variables; a ground query is
    entailed iff it occurs in the chase literally.

    For full (Datalog) rules the chase always terminates and the answer is
    exact; in general this is the positive half of a semi-decision
    procedure, with budget exhaustion reported as [`Unknown]. *)

open Chase_logic
open Chase_engine

type answer =
  [ `Entailed
  | `Not_entailed
  | `Unknown of string
  ]

let default_budget = 50_000

let check ?(config = Engine.default_config) ?(budget = default_budget) rules db
    query =
  let config =
    {
      config with
      Engine.variant = Variant.Semi_oblivious;
      limits = Limits.of_budget budget;
    }
  in
  let result = Engine.run ~config rules db in
  let found =
    Hom.exists ~matcher:config.Engine.matcher result.Engine.instance [ query ]
  in
  if found then `Entailed
  else
    match result.Engine.status with
    | Engine.Terminated -> `Not_entailed
    | Engine.Exhausted reason ->
      `Unknown
        (Fmt.str "%a without deriving %a" Limits.pp_breach
           reason.Limits.Exhaustion.breach Atom.pp query)

let holds ?config ?budget rules db query =
  check ?config ?budget rules db query = `Entailed

(** Entailment from the critical database of the rule schema (extended
    with the query's predicate), the form used by the looping operator. *)
let holds_critical ?config ?(standard = true) ?budget rules query =
  let schema =
    Schema.add_exn (Schema.of_rules rules) (Atom.pred query) (Atom.arity query)
  in
  let crit = Critical.instance ~standard schema in
  holds ?config ?budget rules (Instance.to_list crit) query
