(** Property tests for the join planner and the planned matcher.

    Hand-rolled deterministic generators (seeded [Random.State], no
    shrinking needed — a failing seed is its own reproducer).  Instance
    sizes straddle the planned matcher's small-instance cutoff so both
    the fallback path and real plans are exercised.

    Pinned properties:
    - every plan is a permutation of the body;
    - a seeded plan places the pinned atom first;
    - the planned matcher enumerates exactly the naive matcher's
      substitution multiset, seeded or not, under any initial binding,
      and under an adversarial explicit plan. *)

open Chase
open Test_util

let subst_testable = Alcotest.testable Subst.pp Subst.equal

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* Fixed schema with skewed term distributions: position 0 draws from a
   small constant pool (big buckets), later positions from a larger one
   (small buckets) — so selectivity actually varies across positions. *)
let preds = [| ("p", 2); ("q", 3); ("r", 1); ("s", 2) |]

let const st k = Term.Const (Fmt.str "c%d" (Random.State.int st k))

let gen_fact st =
  let p, n = preds.(Random.State.int st (Array.length preds)) in
  Atom.of_list p (List.init n (fun i -> const st (if i = 0 then 4 else 9)))

let gen_instance st ~atoms =
  let ins = Instance.create () in
  for _ = 1 to atoms do
    ignore (Instance.add ins (gen_fact st))
  done;
  ins

(* Bodies of 2–4 atoms over a shared pool of 4 variables, with repeated
   variables and occasional constants. *)
let gen_body st =
  let n = 2 + Random.State.int st 3 in
  List.init n (fun _ ->
      let p, k = preds.(Random.State.int st (Array.length preds)) in
      Atom.of_list p
        (List.init k (fun _ ->
             if Random.State.float st 1.0 < 0.7 then
               Term.Var (Fmt.str "X%d" (Random.State.int st 4))
             else const st 9)))

(* Instance sizes around the cutoff: tiny, straddling, comfortably above. *)
let size_of_seed seed = [| 10; 50; 64; 80; 200 |].(seed mod 5)

let run_seeds n f =
  for seed = 0 to n - 1 do
    let st = Random.State.make [| 0xBEEF; seed |] in
    f seed st
  done

(* ------------------------------------------------------------------ *)
(* Plan-shape properties                                               *)
(* ------------------------------------------------------------------ *)

let plan_is_permutation () =
  run_seeds 100 (fun seed st ->
      let ins = gen_instance st ~atoms:(size_of_seed seed) in
      let body = gen_body st in
      let n = List.length body in
      let plan = Plan.make ins body in
      Alcotest.(check int)
        (Fmt.str "seed %d: Plan.make is a permutation" seed)
        n
        (Plan.is_permutation plan);
      Alcotest.(check int)
        (Fmt.str "seed %d: plan length" seed)
        n (Plan.length plan);
      for pin = 0 to n - 1 do
        Alcotest.(check int)
          (Fmt.str "seed %d pin %d: Plan.seeded is a permutation" seed pin)
          n
          (Plan.is_permutation (Plan.seeded ins body ~pin))
      done)

let seeded_plan_pins_first () =
  run_seeds 100 (fun seed st ->
      let ins = gen_instance st ~atoms:(size_of_seed seed) in
      let body = gen_body st in
      for pin = 0 to List.length body - 1 do
        let plan = Plan.seeded ins body ~pin in
        Alcotest.(check int)
          (Fmt.str "seed %d: pinned atom is matched first" seed)
          pin
          (Plan.order plan).(0)
      done);
  Alcotest.check_raises "pin out of range"
    (Invalid_argument "Plan.seeded: pin out of range") (fun () ->
      let body = [ Atom.of_list "p" [ Term.Const "c" ] ] in
      ignore (Plan.seeded (Instance.create ()) body ~pin:1))

let plan_atoms_matches_order () =
  run_seeds 50 (fun seed st ->
      let ins = gen_instance st ~atoms:(size_of_seed seed) in
      let body = gen_body st in
      let plan = Plan.make ins body in
      let arr = Array.of_list body in
      Alcotest.(check (list atom_testable))
        (Fmt.str "seed %d: Plan.atoms follows Plan.order" seed)
        (List.map (fun i -> arr.(i)) (Array.to_list (Plan.order plan)))
        (Plan.atoms plan body))

(* ------------------------------------------------------------------ *)
(* Matcher-equivalence properties                                      *)
(* ------------------------------------------------------------------ *)

let collect iter_fn =
  let acc = ref [] in
  iter_fn (fun s -> acc := s :: !acc);
  List.sort Subst.compare !acc

let check_same_subs ctx naive planned =
  Alcotest.(check (list subst_testable)) ctx (collect naive) (collect planned)

let planned_equals_naive () =
  run_seeds 150 (fun seed st ->
      let ins = gen_instance st ~atoms:(size_of_seed seed) in
      let body = gen_body st in
      check_same_subs
        (Fmt.str "seed %d: iter" seed)
        (Hom.iter_naive ins body)
        (Hom.iter_planned ins body))

let planned_equals_naive_with_init () =
  run_seeds 100 (fun seed st ->
      let ins = gen_instance st ~atoms:(size_of_seed seed) in
      let body = gen_body st in
      (* bind one of the pool variables up front *)
      let init = Subst.bind_exn Subst.empty "X0" (const st 9) in
      check_same_subs
        (Fmt.str "seed %d: iter ~init" seed)
        (Hom.iter_naive ~init ins body)
        (Hom.iter_planned ~init ins body))

let seeded_planned_equals_naive () =
  run_seeds 150 (fun seed st ->
      let ins = gen_instance st ~atoms:(size_of_seed seed) in
      let body = gen_body st in
      (* the seed is a fresh fact, as in the engine's delta loop *)
      let seed_fact = gen_fact st in
      ignore (Instance.add ins seed_fact);
      check_same_subs
        (Fmt.str "seed %d: iter_seeded" seed)
        (Hom.iter_seeded_naive ins body ~seed:seed_fact)
        (Hom.iter_seeded_planned ins body ~seed:seed_fact))

(* An explicit plan that differs from the planner's own choice (the last
   body atom forced first): the substitution multiset must not move. *)
let explicit_plan_equals_naive () =
  run_seeds 100 (fun seed st ->
      let ins = gen_instance st ~atoms:(size_of_seed seed) in
      let body = gen_body st in
      let n = List.length body in
      let forced = Plan.seeded ins body ~pin:(n - 1) in
      check_same_subs
        (Fmt.str "seed %d: iter ?plan" seed)
        (Hom.iter_naive ins body)
        (Hom.iter_planned ~plan:forced ins body))

(* The dispatching entry points follow their matcher argument: the
   naive dispatch enumerates in the reference matcher's order, the
   planned one in the planned matcher's, and the sets agree. *)
let dispatch_follows_matcher () =
  let st = Random.State.make [| 0xD15; 7 |] in
  let ins = gen_instance st ~atoms:120 in
  let body = gen_body st in
  let via_naive = collect (Hom.iter ~matcher:Hom.Naive ins body) in
  let via_planned = collect (Hom.iter ~matcher:Hom.Planned ins body) in
  Alcotest.(check (list subst_testable))
    "dispatched matchers agree" via_naive via_planned;
  (* emission order, unsorted *)
  let order iter_fn =
    let acc = ref [] in
    iter_fn (fun s -> acc := s :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list subst_testable))
    "naive dispatch is the reference matcher"
    (order (Hom.iter_naive ins body))
    (order (Hom.iter ~matcher:Hom.Naive ins body));
  Alcotest.(check (list subst_testable))
    "planned dispatch is the planned matcher"
    (order (Hom.iter_planned ins body))
    (order (Hom.iter ~matcher:Hom.Planned ins body))

let suite =
  [
    Alcotest.test_case "plans are permutations of the body" `Quick
      plan_is_permutation;
    Alcotest.test_case "seeded plans place the pin first" `Quick
      seeded_plan_pins_first;
    Alcotest.test_case "Plan.atoms follows Plan.order" `Quick
      plan_atoms_matches_order;
    Alcotest.test_case "planned iter = naive iter (150 seeds)" `Quick
      planned_equals_naive;
    Alcotest.test_case "planned iter = naive iter under ~init" `Quick
      planned_equals_naive_with_init;
    Alcotest.test_case "planned seeded iter = naive seeded iter" `Quick
      seeded_planned_equals_naive;
    Alcotest.test_case "explicit ?plan preserves the substitution set" `Quick
      explicit_plan_equals_naive;
    Alcotest.test_case "dispatch follows the matcher argument" `Quick
      dispatch_follows_matcher;
  ]
