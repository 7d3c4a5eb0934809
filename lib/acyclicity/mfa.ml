(** Model-faithful acyclicity (Cuenca Grau, Horrocks, Krötzsch, Kupke,
    Magka, Motik, Wang — KR 2012 / JAIR 2013).

    MFA is the strongest of the standard sufficient conditions for
    semi-oblivious (skolem) chase termination: skolemize the rules, chase
    the critical instance, and declare failure as soon as a {e cyclic}
    functional term appears — a null whose skolem-term structure nests the
    same function symbol f_{σ,z} inside itself.  If the chase completes
    without ever building a cyclic term, only finitely many term shapes
    exist for any database, so the semi-oblivious chase terminates
    universally:  WA ⊆ JA ⊆ MFA ⊆ CT^so.

    Instead of materializing skolem terms we run the semi-oblivious chase
    engine on the critical instance and annotate every null with the
    {e set} of function symbols occurring in its term tree: the union of
    the symbol sets of the frontier nulls it was built from, plus its own
    creating symbol (rule index, existential variable).  A null is cyclic
    exactly when its creating symbol already occurs among its ancestors'
    symbols; the first one found cancels the run.

    Checking MFA is itself 2EXPTIME-complete; the chase we run is the
    definition's chase, but we keep a trigger budget as an engineering
    safeguard and report [`Unknown] if it is ever hit. *)

open Chase_logic

type answer =
  [ `Mfa  (** the critical chase completed with no cyclic term *)
  | `Not_mfa of string  (** a cyclic functional term, pretty-printed *)
  | `Unknown of string  (** budget exhausted (not observed in practice) *)
  ]

module Sym_set = Set.Make (struct
  type t = int * string  (* rule index, existential variable *)

  let compare = compare
end)

let default_budget = 100_000

let check ?(config = Chase_engine.Engine.default_config) ?(standard = false)
    ?(budget = default_budget) rules =
  let module Engine = Chase_engine.Engine in
  let crit = Chase_engine.Critical.of_rules ~standard rules in
  let symbols_of_null : (int, Sym_set.t) Hashtbl.t = Hashtbl.create 256 in
  let inherited_symbols sub frontier =
    Util.Sset.fold
      (fun v acc ->
        match Subst.find_opt v sub with
        | Some (Term.Null n) -> (
          match Hashtbl.find_opt symbols_of_null n with
          | Some s -> Sym_set.union s acc
          | None -> acc)
        | Some (Term.Const _) | Some (Term.Var _) | None -> acc)
      frontier Sym_set.empty
  in
  let cancel = Chase_engine.Limits.Cancel.create () in
  let cyclic = ref None in
  (* The engine invents the nulls of a trigger in ascending existential
     order; pair each with its creating symbol. *)
  let on_trigger ~step:_ ~rule_index ~depth:_ ~created_nulls r sub _added =
    let inherited = inherited_symbols sub (Tgd.frontier r) in
    List.iter2
      (fun z n ->
        let sym = (rule_index, z) in
        if Sym_set.mem sym inherited && !cyclic = None then begin
          cyclic :=
            Some
              (Fmt.str
                 "cyclic term: f_(%s,%s) nested within itself under trigger %a \
                  of rule %a"
                 (Tgd.name r) z Subst.pp sub Tgd.pp r);
          Chase_engine.Limits.Cancel.cancel ~reason:"cyclic term" cancel
        end;
        Hashtbl.replace symbols_of_null n (Sym_set.add sym inherited))
      (Util.Sset.elements (Tgd.existentials r))
      created_nulls
  in
  let config =
    {
      config with
      Engine.variant = Chase_engine.Variant.Semi_oblivious;
      limits = Chase_engine.Limits.make ~max_triggers:budget ~cancel ();
    }
  in
  let result = Engine.run ~config ~on_trigger rules (Instance.to_list crit) in
  match (!cyclic, result.Engine.status) with
  | Some msg, _ -> `Not_mfa msg
  | None, Engine.Terminated -> `Mfa
  | None, Engine.Exhausted _ ->
    `Unknown (Fmt.str "MFA chase budget of %d triggers exhausted" budget)

let is_mfa ?config ?standard ?budget rules =
  match check ?config ?standard ?budget rules with
  | `Mfa -> true
  | `Not_mfa _ | `Unknown _ -> false
