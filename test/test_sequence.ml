(** Tests validating the engine against the paper's §2 definition of
    chase sequences, via the {!Chase.Sequence} capture. *)

open Chase
open Test_util

let test_capture_basic () =
  let rules = parse "p(X) -> q(X). q(X) -> r(X)." in
  let seq, result = Sequence.record ~variant:Variant.Oblivious rules (parse_facts "p(a).") in
  Alcotest.(check bool) "complete" true seq.Sequence.complete;
  Alcotest.(check int) "two steps" 2 (Sequence.length seq);
  Alcotest.(check int) "matches engine count" result.Engine.triggers_applied
    (Sequence.length seq)

let test_instances_monotone () =
  let rules = parse "p(X) -> q(X, Z). q(X, Y) -> r(Y)." in
  let seq, _ = Sequence.record ~variant:Variant.Oblivious rules (parse_facts "p(a). p(b).") in
  let chain = Sequence.instances seq in
  Alcotest.(check int) "one instance per step plus I0"
    (Sequence.length seq + 1) (List.length chain);
  let sizes = List.map List.length chain in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sizes non-decreasing" true (monotone sizes)

let test_clauses_on_named_runs () =
  List.iter
    (fun (name, rules, db) ->
      List.iter
        (fun variant ->
          let seq, _ =
            Sequence.record
              ~config:
                { Engine.default_config with variant; limits = Limits.make ~max_triggers:300 ~max_atoms:2_000 () }
              ~variant rules db
          in
          Alcotest.(check bool)
            (Fmt.str "%s/%s: steps valid" name (Variant.to_string variant))
            true (Sequence.steps_are_valid seq);
          Alcotest.(check bool)
            (Fmt.str "%s/%s: no repeated trigger" name (Variant.to_string variant))
            true
            (Sequence.no_repeated_trigger seq))
        [ Variant.Oblivious; Variant.Semi_oblivious; Variant.Restricted ])
    [
      ("example1", Families.example1, parse_facts "person(bob).");
      ("example2", Families.example2, parse_facts "p(a, b).");
      ("tower", Families.guarded_tower ~levels:3,
       Instance.to_list (Critical.of_rules (Families.guarded_tower ~levels:3)));
      ("transitivity", parse "e(X, Y), e(Y, Z) -> e(X, Z).",
       parse_facts "e(a, b). e(b, c). e(c, d).");
    ]

let test_exhaustive_on_terminating () =
  let rules = parse "p(X) -> q(X, Z)." in
  let seq, _ = Sequence.record ~variant:Variant.Semi_oblivious rules (parse_facts "p(a).") in
  Alcotest.(check bool) "exhaustive" true (Sequence.exhaustive seq rules)

(* the paper's clause (ii) as a property over random runs *)
let no_repeat_prop =
  qcheck ~count:100 "engine never applies a trigger twice (paper §2(ii))"
    (QCheck.make QCheck.Gen.(pair small_nat (oneofl Variant.all)))
    (fun (seed, variant) ->
      let rules = Random_tgds.linear ~seed () in
      let db = Instance.to_list (Critical.generic_of_rules rules) in
      let seq, _ =
        Sequence.record
          ~config:
            { Engine.default_config with variant;
              limits = Limits.make ~max_triggers:500 ~max_atoms:4_000 () }
          ~variant rules db
      in
      Sequence.no_repeated_trigger seq && Sequence.steps_are_valid seq)

let suite =
  [
    Alcotest.test_case "capture basic" `Quick test_capture_basic;
    Alcotest.test_case "instances monotone" `Quick test_instances_monotone;
    Alcotest.test_case "definition clauses on named runs" `Quick
      test_clauses_on_named_runs;
    Alcotest.test_case "exhaustive on terminating runs" `Quick
      test_exhaustive_on_terminating;
    no_repeat_prop;
  ]
