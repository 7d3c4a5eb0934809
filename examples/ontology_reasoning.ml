(** Ontology reasoning with inclusion dependencies (DL-Lite style).

    Simple linear TGDs capture inclusion dependencies and the core of
    DL-Lite, the paper's motivating class for Theorem 1.  This example
    models a small university ontology, decides chase termination for the
    TBox with the exact Theorem-1 procedure, and answers queries over the
    chase when it terminates.

    Run with: dune exec examples/ontology_reasoning.exe *)

open Chase

let section title = Fmt.pr "@.== %s ==@.@." title

(* A DL-Lite-ish TBox as simple linear TGDs:
     Professor ⊑ Teacher                 prof(X) → teacher(X)
     Teacher ⊑ ∃teaches                  teacher(X) → teaches(X, C)
     ∃teaches⁻ ⊑ Course                  teaches(X, C) → course(C)
     Course ⊑ ∃taughtBy                  course(C) → taught_by(C, T)
     ∃taughtBy⁻ ⊑ Teacher                taught_by(C, T) → teacher(T)   *)
let tbox =
  Parser.parse_rules_exn
    {|
      a1: prof(X) -> teacher(X).
      a2: teacher(X) -> teaches(X, C).
      a3: teaches(X, C) -> course(C).
      a4: course(C) -> taught_by(C, T).
      a5: taught_by(C, T) -> teacher(T).
    |}

let abox = Parser.parse_database_exn "prof(ada). course(logic101)."

let () =
  section "The TBox is simple linear";
  Fmt.pr "  class: %a@." Classify.pp_cls (Classify.classify tbox);

  section "Theorem 1: acyclicity decides termination exactly";
  List.iter
    (fun variant ->
      let v = Sl.check ~variant tbox in
      Fmt.pr "  %-15s %s (by %s)@." (Variant.to_string variant)
        (Verdict.answer_to_string (Verdict.answer v))
        v.Verdict.procedure)
    [ Variant.Oblivious; Variant.Semi_oblivious ];
  Fmt.pr
    "@.  The axiom loop a2→a3→a4→a5 re-feeds 'teacher' through fresh \
     existentials,@.  so the dependency-graph cycle is dangerous: both \
     chase variants diverge.@.";

  section "A repaired TBox";
  (* Breaking the loop at a5 (auxiliary staff instead of teachers) makes
     the ontology terminating. *)
  let repaired =
    Parser.parse_rules_exn
      {|
        a1: prof(X) -> teacher(X).
        a2: teacher(X) -> teaches(X, C).
        a3: teaches(X, C) -> course(C).
        a4: course(C) -> taught_by(C, T).
        a5: taught_by(C, T) -> staff(T).
      |}
  in
  List.iter
    (fun variant ->
      let v = Sl.check ~variant repaired in
      Fmt.pr "  %-15s %s@." (Variant.to_string variant)
        (Verdict.answer_to_string (Verdict.answer v)))
    [ Variant.Oblivious; Variant.Semi_oblivious ];

  section "Query answering over the terminating chase";
  let result =
    Engine.run
      ~config:
        {
          Engine.default_config with variant = Variant.Restricted;
          limits = Limits.make ~max_triggers:10_000 ~max_atoms:10_000 ();
        }
      repaired abox
  in
  assert (result.Engine.status = Engine.Terminated);
  Fmt.pr "  chase of the ABox (%d facts):@." (Instance.cardinal result.Engine.instance);
  List.iter
    (fun a -> Fmt.pr "    %a@." Atom.pp a)
    (Instance.to_sorted_list result.Engine.instance);
  (* certain answer: is there certainly a course ada teaches? *)
  let q = Atom.of_list "teaches" [ Term.Const "ada"; Term.Var "C" ] in
  Fmt.pr "  ∃C teaches(ada, C): %b@." (Hom.exists result.Engine.instance [ q ]);
  (* is any specific course certainly taught by ada?  No — the course is
     anonymous (a labelled null), so there is no constant answer. *)
  let certain =
    Hom.all result.Engine.instance [ q ]
    |> List.filter_map (fun s -> Subst.find_opt "C" s)
    |> List.filter Term.is_const
  in
  Fmt.pr "  certain constant answers for C: %d@." (List.length certain);

  section "Termination is not monotone";
  (* Individually terminating axioms can diverge together: a2 alone and
     a5'=taught_by(C,T) → teacher(T) alone terminate, their union with a4
     does not. *)
  let a2 = Parser.parse_rules_exn "teacher(X) -> teaches(X, C)." in
  let check name rules =
    let v = Decide.check ~variant:Variant.Semi_oblivious rules in
    Fmt.pr "  %-20s %s@." name (Verdict.answer_to_string (Verdict.answer v))
  in
  check "a2 alone" a2;
  check "a3+a4+a5 alone" (List.filteri (fun i _ -> i >= 2) tbox);
  check "whole TBox" tbox
