(** Quickstart: the paper's two running examples, end to end.

    Run with: dune exec examples/quickstart.exe *)

open Chase

let section title = Fmt.pr "@.== %s ==@.@." title

let () =
  section "Example 1: every person has a father who is a person";
  (* person(X) → ∃Y hasFather(X,Y) ∧ person(Y) *)
  let rules =
    Parser.parse_rules_exn "person(X) -> hasFather(X, Y), person(Y)."
  in
  let db = Parser.parse_database_exn "person(bob)." in
  (* The chase is infinite; run a bounded prefix and look at it. *)
  let config =
    { Engine.default_config with variant = Variant.Oblivious;
      limits = Limits.make ~max_triggers:4 ~max_atoms:100 () }
  in
  let result = Engine.run ~config rules db in
  List.iter
    (fun a -> Fmt.pr "  %a@." Atom.pp a)
    (Instance.to_sorted_list result.Engine.instance);
  Fmt.pr "  … and so on forever: %a@." Engine.pp_result result;

  section "Deciding termination without running the chase";
  (* The set is linear, so Theorem 1/2 machinery applies. *)
  List.iter
    (fun variant ->
      let v = Decide.check ~variant rules in
      Fmt.pr "  %a chase: %s@." Variant.pp variant
        (Verdict.answer_to_string (Verdict.answer v)))
    [ Variant.Oblivious; Variant.Semi_oblivious ];

  section "Example 2 and the oblivious/semi-oblivious separation";
  let show name rules =
    let o = Decide.check ~variant:Variant.Oblivious rules in
    let so = Decide.check ~variant:Variant.Semi_oblivious rules in
    Fmt.pr "  %-28s o: %-10s so: %-10s@." name
      (Verdict.answer_to_string (Verdict.answer o))
      (Verdict.answer_to_string (Verdict.answer so))
  in
  show "p(X,Y) -> p(Y,Z)" Families.example2;
  show "p(X,Y) -> p(X,Z)" Families.separator;
  show "p(X,X) -> p(X,Z)" Families.thm2_counterexample;
  Fmt.pr
    "@.  The second line is the separation behind Theorem 1 (richly acyclic ⊊ \
     weakly acyclic);@.  the third is the repeated-variable effect behind \
     Theorem 2.@.";

  section "A verdict carries its evidence";
  let v = Decide.check ~variant:Variant.Oblivious Families.separator in
  Fmt.pr "  %a@." Verdict.pp v
