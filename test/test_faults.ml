(** Fault-injection tests for the resource-governed runtime: scheduled
    deadline expiry, cancellation and cap trips must all flow through the
    engine's real degradation paths and leave a well-formed partial
    result whose facts replay from their derivations. *)

open Chase
open Test_util

let zoo () = Parser.parse_rules_exn (read_data "divergent_zoo.chase")
let zoo_db () = parse_facts "p(a, a). q(a, a). r(a, a). marked(a)."

(* Plenty of headroom in the base limits: only the injection may stop the
   run before the safety-net trigger budget. *)
let base_limits () =
  Limits.make ~max_triggers:5_000 ~max_atoms:50_000 ~max_nulls:50_000
    ~max_depth:10_000 ~timeout:3_600. ()

let run_with_faults plan =
  let faults = Faults.create plan in
  let limits = Faults.arm faults (base_limits ()) in
  let config = { Engine.default_config with variant = Variant.Oblivious; limits } in
  let result = Engine.run ~config (zoo ()) (zoo_db ()) in
  (match Engine.check_provenance result ~db:(zoo_db ()) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("unsound partial result: " ^ msg));
  (result, exhaustion_exn result, Faults.fired faults)

let test_injected_deadline () =
  let _, reason, fired = run_with_faults [ (40, Faults.Expire_deadline) ] in
  (match reason.Limits.Exhaustion.breach with
  | Limits.Deadline 3_600. -> ()
  | b -> Alcotest.failf "wrong breach: %a" Limits.pp_breach b);
  Alcotest.(check int) "stopped at the injection step" 40
    reason.Limits.Exhaustion.steps;
  match fired with
  | [ (40, Faults.Expire_deadline) ] -> ()
  | _ -> Alcotest.fail "injection log does not record the expiry"

let test_injected_cancellation () =
  let _, reason, fired = run_with_faults [ (25, Faults.Cancel "injected") ] in
  (match reason.Limits.Exhaustion.breach with
  | Limits.Cancelled (Some "injected") -> ()
  | b -> Alcotest.failf "wrong breach: %a" Limits.pp_breach b);
  Alcotest.(check int) "stopped at the injection step" 25
    reason.Limits.Exhaustion.steps;
  Alcotest.(check int) "one injection fired" 1 (List.length fired)

let test_injected_atom_cap () =
  let result, reason, _ = run_with_faults [ (30, Faults.Trip_atom_cap) ] in
  match reason.Limits.Exhaustion.breach with
  | Limits.Atom_budget n ->
    Alcotest.(check int) "cap collapsed to the cardinality at the trip" n
      (Instance.cardinal result.Engine.instance)
  | b -> Alcotest.failf "wrong breach: %a" Limits.pp_breach b

let test_injected_trigger_cap () =
  let _, reason, _ = run_with_faults [ (20, Faults.Trip_trigger_cap) ] in
  match reason.Limits.Exhaustion.breach with
  | Limits.Trigger_budget 20 ->
    Alcotest.(check int) "no step beyond the trip" 20
      reason.Limits.Exhaustion.steps
  | b -> Alcotest.failf "wrong breach: %a" Limits.pp_breach b

let test_injected_null_and_depth_caps () =
  let _, r1, _ = run_with_faults [ (15, Faults.Trip_null_cap) ] in
  (match r1.Limits.Exhaustion.breach with
  | Limits.Null_budget _ -> ()
  | b -> Alcotest.failf "wrong breach: %a" Limits.pp_breach b);
  let _, r2, _ = run_with_faults [ (15, Faults.Trip_depth_cap) ] in
  match r2.Limits.Exhaustion.breach with
  | Limits.Depth_budget _ -> ()
  | b -> Alcotest.failf "wrong breach: %a" Limits.pp_breach b

let test_first_injection_wins () =
  (* the cancellation at step 10 lands before the deadline at step 50 *)
  let _, reason, fired =
    run_with_faults
      [ (50, Faults.Expire_deadline); (10, Faults.Cancel "early") ]
  in
  (match reason.Limits.Exhaustion.breach with
  | Limits.Cancelled (Some "early") -> ()
  | b -> Alcotest.failf "wrong breach: %a" Limits.pp_breach b);
  Alcotest.(check int) "only the early injection fired" 1 (List.length fired)

(* the property behind the harness: EVERY degraded path yields a
   well-formed partial result whose facts are all derivable *)
let degraded_paths_sound =
  let injections =
    [ Faults.Expire_deadline; Faults.Cancel "fuzz"; Faults.Trip_trigger_cap;
      Faults.Trip_atom_cap; Faults.Trip_null_cap; Faults.Trip_depth_cap ]
  in
  let gen = QCheck.Gen.(pair (int_range 0 120) (oneofl injections)) in
  let print (step, inj) = Fmt.str "(%d, %a)" step Faults.pp_injection inj in
  qcheck ~count:120 "every injected fault degrades to a sound prefix"
    (QCheck.make ~print gen)
    (fun (step, injection) ->
      let result, reason, fired = run_with_faults [ (step, injection) ] in
      Engine.exhausted result
      && List.length fired = 1
      && reason.Limits.Exhaustion.steps <= step
         + 1 (* the breach lands at the check for the injection step *)
      && Instance.cardinal result.Engine.instance
         >= List.length (zoo_db ()))

let suite =
  [
    Alcotest.test_case "injected deadline expiry" `Quick test_injected_deadline;
    Alcotest.test_case "injected cancellation" `Quick
      test_injected_cancellation;
    Alcotest.test_case "injected atom-cap trip" `Quick test_injected_atom_cap;
    Alcotest.test_case "injected trigger-cap trip" `Quick
      test_injected_trigger_cap;
    Alcotest.test_case "injected null/depth-cap trips" `Quick
      test_injected_null_and_depth_caps;
    Alcotest.test_case "earliest injection wins" `Quick
      test_first_injection_wins;
    degraded_paths_sound;
  ]
