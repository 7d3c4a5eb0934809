(** The termination zoo: every named family of the library, classified and
    decided under both chase variants, with the restricted chase run on
    the critical instance for comparison.

    This reproduces, in one table, the landscape the paper maps out:
    where the o- and so-chase differ, where plain acyclicity stops being
    exact, and what guardedness buys.

    Run with: dune exec examples/termination_zoo.exe *)

open Chase

let verdict_cell rules variant =
  match Verdict.answer (Decide.check ~budget:20_000 ~variant rules) with
  | Verdict.Terminates -> "term"
  | Verdict.Diverges -> "DIV"
  | Verdict.Unknown -> "?"

let restricted_cell rules =
  (* the critical-instance reduction is unsound for the restricted chase;
     probe it on the generic (all-distinct-constants) instance instead *)
  let generic = Critical.generic_of_rules rules in
  let config =
    {
      Engine.default_config with variant = Variant.Restricted;
      limits = Limits.make ~max_triggers:20_000 ~max_atoms:80_000 ();
    }
  in
  match (Engine.run ~config rules (Instance.to_list generic)).Engine.status with
  | Engine.Terminated -> "term*"
  | Engine.Exhausted _ -> "DIV*"

let acyclicity_cell rules =
  (* the strongest condition in the chain RA ⊆ WA ⊆ JA ⊆ MFA that holds *)
  if Rich.is_richly_acyclic rules then "RA"
  else if Weak.is_weakly_acyclic rules then "WA"
  else if Joint.is_jointly_acyclic rules then "JA"
  else if Mfa.is_mfa rules then "MFA"
  else "-"

let () =
  Fmt.pr "%-24s %-14s %-5s %-6s %-6s %-6s@." "family" "class" "acyc"
    "o" "so" "restr";
  Fmt.pr "%s@." (String.make 66 '-');
  List.iter
    (fun (name, rules) ->
      Fmt.pr "%-24s %-14s %-5s %-6s %-6s %-6s@." name
        (Classify.cls_to_string (Classify.classify rules))
        (acyclicity_cell rules)
        (verdict_cell rules Variant.Oblivious)
        (verdict_cell rules Variant.Semi_oblivious)
        (restricted_cell rules))
    Families.catalogue;
  Fmt.pr
    "@.acyc: strongest acyclicity condition in RA ⊆ WA ⊆ JA ⊆ MFA; restr: \
     restricted chase@.on the generic all-distinct instance (*no all-instance \
     guarantee — DESIGN.md §3.1).@."
