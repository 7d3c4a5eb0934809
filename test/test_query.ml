(** Tests for conjunctive queries: evaluation, certain answers,
    containment (plain and under TGDs). *)

open Chase
open Test_util

(* build query bodies by parsing a rule whose body is the CQ *)
let query_of ?name ~vars src =
  let r = Parser.parse_rule_exn (src ^ " -> internal_dummy(A0)") in
  Query.make_exn ?name ~answer_vars:vars (Tgd.body r)

let test_safety () =
  Alcotest.(check bool) "unsafe query rejected" true
    (Result.is_error
       (Query.make ~answer_vars:[ "Y" ]
          [ Atom.of_list "p" [ Term.Var "X" ] ]))

let test_evaluation () =
  let ins = Instance.of_list (parse_facts "e(a, b). e(b, c). e(a, c).") in
  let reach = query_of ~vars:[ "X"; "Z" ] "e(X, Y), e(Y, Z)" in
  let answers = Query.answers reach ins in
  Alcotest.(check int) "one 2-path" 1 (List.length answers);
  Alcotest.(check bool) "a to c" true
    (List.hd answers = [ Term.Const "a"; Term.Const "c" ])

let test_certain_answers_filter_nulls () =
  let rules = parse "p(X) -> q(X, Z)." in
  let result = chase rules (parse_facts "p(a).") in
  let all_q = query_of ~vars:[ "Y" ] "q(X, Y)" in
  Alcotest.(check int) "one answer with a null" 1
    (List.length (Query.answers all_q result.Engine.instance));
  Alcotest.(check int) "no certain constant answer" 0
    (List.length (Query.certain_answers all_q result.Engine.instance))

let test_boolean () =
  let ins = Instance.of_list (parse_facts "p(a). q(a).") in
  Alcotest.(check bool) "holds" true
    (Query.holds (query_of ~vars:[] "p(X), q(X)") ins);
  Alcotest.(check bool) "fails" false
    (Query.holds (query_of ~vars:[] "p(X), r(X)") ins)

let test_containment_classic () =
  (* q1(X,Z) ← e(X,Y), e(Y,Z)   ⊆   q2(X,Z) ← e(X,Y), e(Y',Z) *)
  let q1 = query_of ~vars:[ "X"; "Z" ] "e(X, Y), e(Y, Z)" in
  let q2 = query_of ~vars:[ "X"; "Z" ] "e(X, Y), e(W, Z)" in
  Alcotest.(check bool) "2-path ⊆ loose pair" true (Query.contained_in q1 q2);
  Alcotest.(check bool) "loose pair ⊄ 2-path" false (Query.contained_in q2 q1);
  Alcotest.(check bool) "self containment" true (Query.contained_in q1 q1);
  Alcotest.(check bool) "not equivalent" false (Query.equivalent q1 q2)

let test_containment_under_tgds () =
  (* under transitivity, the 2-path query is contained in the edge query *)
  let rules = parse "e(X, Y), e(Y, Z) -> e(X, Z)." in
  let two_path = query_of ~vars:[ "X"; "Z" ] "e(X, Y), e(Y, Z)" in
  let edge = query_of ~vars:[ "X"; "Z" ] "e(X, Z)" in
  let chase_fn ~budget rules db =
    let config =
      {
        Engine.default_config with variant = Variant.Semi_oblivious;
        limits = Limits.of_budget budget;
      }
    in
    let r = Engine.run ~config rules db in
    match r.Engine.status with
    | Engine.Terminated -> Some r.Engine.instance
    | Engine.Exhausted _ -> None
  in
  Alcotest.(check (option bool)) "2-path ⊆ edge under transitivity"
    (Some true)
    (Query.contained_in_under ~chase:chase_fn rules two_path edge);
  Alcotest.(check (option bool)) "edge ⊄ 2-path even under transitivity"
    (Some false)
    (Query.contained_in_under ~chase:chase_fn rules edge two_path);
  (* without the rules the containment fails *)
  Alcotest.(check bool) "2-path ⊄ edge classically" false
    (Query.contained_in two_path edge)

let test_containment_budget () =
  let rules = Families.example2 in
  let q1 = query_of ~vars:[ "X" ] "p(X, Y)" in
  let chase_fn ~budget rules db =
    let config =
      {
        Engine.default_config with variant = Variant.Semi_oblivious;
        limits = Limits.of_budget budget;
      }
    in
    let r = Engine.run ~config rules db in
    match r.Engine.status with
    | Engine.Terminated -> Some r.Engine.instance
    | Engine.Exhausted _ -> None
  in
  Alcotest.(check (option bool)) "diverging chase gives None" None
    (Query.contained_in_under ~budget:100 ~chase:chase_fn rules q1 q1)

(* randomized: freezing is sound — if q1 ⊆ q2 is reported, then on random
   instances answers(q1) ⊆ answers(q2) *)
let containment_sound =
  let gen = QCheck.Gen.(pair small_nat (list_size (int_range 1 8) (pair (int_range 0 3) (int_range 0 3)))) in
  qcheck ~count:100 "containment decisions are sound on random instances"
    (QCheck.make gen)
    (fun (pick, edges) ->
      let q1 = query_of ~vars:[ "X"; "Z" ] "e(X, Y), e(Y, Z)" in
      let q2 = query_of ~vars:[ "X"; "Z" ] "e(X, Y), e(W, Z)" in
      let qa, qb = if pick mod 2 = 0 then (q1, q2) else (q2, q1) in
      let ins =
        Instance.of_list
          (List.map
             (fun (i, j) ->
               Atom.of_list "e"
                 [ Term.Const (Fmt.str "c%d" i); Term.Const (Fmt.str "c%d" j) ])
             edges)
      in
      (not (Query.contained_in qa qb))
      || List.for_all
           (fun t -> List.mem t (Query.answers qb ins))
           (Query.answers qa ins))

let suite =
  [
    Alcotest.test_case "safety check" `Quick test_safety;
    Alcotest.test_case "evaluation" `Quick test_evaluation;
    Alcotest.test_case "certain answers filter nulls" `Quick
      test_certain_answers_filter_nulls;
    Alcotest.test_case "boolean queries" `Quick test_boolean;
    Alcotest.test_case "classic containment" `Quick test_containment_classic;
    Alcotest.test_case "containment under TGDs" `Quick test_containment_under_tgds;
    Alcotest.test_case "containment budget" `Quick test_containment_budget;
    containment_sound;
  ]
