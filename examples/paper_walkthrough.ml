(** A guided tour of the paper, section by section, with the library.

    Follows "Chase Termination for Guarded Existential Rules" (Calautti,
    Gottlob, Pieris; PODS/AMW 2015): §1's motivating example, §2's chase
    sequences and the CT classes, §3's theorems, and §4's restricted-chase
    outlook.

    Run with: dune exec examples/paper_walkthrough.exe *)

open Chase

let heading title = Fmt.pr "@.%s@.%s@.@." title (String.make (String.length title) '-')

(* ------------------------------------------------------------------ *)

let section_1 () =
  heading "§1  The chase may run forever (Example 1)";
  let rules = Families.example1 in
  let db = Parser.parse_database_exn "person(bob)." in
  let seq, result =
    Sequence.record
      ~config:
        { Engine.default_config with variant = Variant.Oblivious;
          limits = Limits.make ~max_triggers:3 ~max_atoms:50 () }
      ~variant:Variant.Oblivious rules db
  in
  Fmt.pr "%a@." Sequence.pp seq;
  Fmt.pr "after %d steps: %d facts — and a trigger is still pending@."
    (Sequence.length seq)
    (Instance.cardinal result.Engine.instance)

let section_2 () =
  heading "§2  Chase sequences and the CT classes";
  (* Example 2: the one-rule set with a single, non-terminating sequence *)
  let rules = Families.example2 in
  let db = Parser.parse_database_exn "p(a, b)." in
  let seq, _ =
    Sequence.record
      ~config:
        { Engine.default_config with variant = Variant.Oblivious;
          limits = Limits.make ~max_triggers:4 ~max_atoms:50 () }
      ~variant:Variant.Oblivious rules db
  in
  Fmt.pr "Example 2 from p(a,b) — the sequence I0, I1, …:@.";
  List.iteri
    (fun i atoms -> Fmt.pr "  I%d = {%a}@." i Fmt.(list ~sep:comma Atom.pp) atoms)
    (Sequence.instances seq);
  Fmt.pr "@.the definition's clauses, checked on the prefix:@.";
  Fmt.pr "  (i)  every step maps its body into the current instance: %b@."
    (Sequence.steps_are_valid seq);
  Fmt.pr "  (ii) no trigger is applied twice: %b@." (Sequence.no_repeated_trigger seq);
  (* CT^o = CT^so ⊆ … the variant census on this set *)
  Fmt.pr "@.CT membership of Example 2: o %s, so %s@."
    (Verdict.answer_to_string
       (Verdict.answer (Decide.check ~variant:Variant.Oblivious rules)))
    (Verdict.answer_to_string
       (Verdict.answer (Decide.check ~variant:Variant.Semi_oblivious rules)))

let section_3_1 () =
  heading "§3.1  Linearity: Theorems 1 and 2";
  (* Theorem 1 via the dependency graphs *)
  let show name rules =
    Fmt.pr "  %-22s RA %-5b WA %-5b o:%-11s so:%s@." name
      (Rich.is_richly_acyclic rules)
      (Weak.is_weakly_acyclic rules)
      (Verdict.answer_to_string
         (Verdict.answer (Decide.check ~variant:Variant.Oblivious rules)))
      (Verdict.answer_to_string
         (Verdict.answer (Decide.check ~variant:Variant.Semi_oblivious rules)))
  in
  Fmt.pr "Theorem 1 (simple linear): acyclicity is exact@.";
  show "p(X,Y) -> p(Y,Z)" Families.example2;
  show "p(X,Y) -> p(X,Z)" Families.separator;
  show "chain of 4" (Families.sl_chain 4);
  Fmt.pr "@.Theorem 2 (linear): repeated variables break plain acyclicity@.";
  show "p(X,X) -> p(X,Z)" Families.thm2_counterexample;
  (* and the pump certificate for a genuinely divergent linear set *)
  let v = Linear.check ~variant:Variant.Oblivious (Families.linear_rotating ~arity:3) in
  Fmt.pr "@.a Theorem-2 divergence certificate:@.%a@." Verdict.pp v

let section_3_2 () =
  heading "§3.2  Guardedness: Theorem 4";
  let rules = Families.guarded_divergent ~arity:2 in
  List.iter (fun r -> Fmt.pr "  %a@." Tgd.pp r) rules;
  let v = Guarded.check ~variant:Variant.Semi_oblivious rules in
  Fmt.pr "@.%a@." Verdict.pp v;
  let rules_t = Families.guarded_terminating ~arity:2 in
  let v_t = Guarded.check ~variant:Variant.Semi_oblivious rules_t in
  Fmt.pr "@.and its terminating variant: %s@."
    (Verdict.answer_to_string (Verdict.answer v_t))

let section_3_lower_bounds () =
  heading "§3  The looping operator (lower-bound device)";
  let sigma = Parser.parse_rules_exn "r(X, Y), m(Y) -> s(Y). s(X) -> goal(X)." in
  let db = Parser.parse_database_exn "r(a, b). m(b)." in
  let target = Atom.of_list "goal" [ Term.Var "G" ] in
  Fmt.pr "Σ entails ∃G goal(G) from D: %b@." (Entailment.holds sigma db target);
  let looped = (Looping.apply sigma ~target).Looping.rules in
  List.iter (fun r -> Fmt.pr "  %a@." Tgd.pp r) looped;
  let result =
    Engine.run
      ~config:
        { Engine.default_config with variant = Variant.Semi_oblivious;
          limits = Limits.make ~max_triggers:200 ~max_atoms:1000 () }
      looped db
  in
  Fmt.pr "chase of D under loop(Σ, goal): %s — termination flipped into \
          divergence@."
    (match result.Engine.status with
    | Engine.Terminated -> "terminated"
    | Engine.Exhausted _ -> "diverges")

let section_4 () =
  heading "§4  Future work: the restricted chase";
  let rules = Families.restricted_separator in
  List.iter (fun r -> Fmt.pr "  %a@." Tgd.pp r) rules;
  let db = Parser.parse_database_exn "e(a, b)." in
  let restricted =
    Engine.run
      ~config:
        { Engine.default_config with variant = Variant.Restricted;
          limits = Limits.make ~max_triggers:1000 ~max_atoms:4000 () }
      rules db
  in
  let oblivious =
    Engine.run
      ~config:
        { Engine.default_config with variant = Variant.Oblivious;
          limits = Limits.make ~max_triggers:1000 ~max_atoms:4000 () }
      rules db
  in
  Fmt.pr "@.from e(a,b): restricted %s (%d facts), oblivious %s@."
    (match restricted.Engine.status with
    | Engine.Terminated -> "terminates"
    | Engine.Exhausted _ -> "diverges")
    (Instance.cardinal restricted.Engine.instance)
    (match oblivious.Engine.status with
    | Engine.Terminated -> "terminates"
    | Engine.Exhausted _ -> "diverges");
  Fmt.pr "…the separation the paper's §4 sets out to characterize.@."

let () =
  Fmt.pr "Chase Termination for Guarded Existential Rules — a walkthrough@.";
  section_1 ();
  section_2 ();
  section_3_1 ();
  section_3_2 ();
  section_3_lower_bounds ();
  section_4 ()
