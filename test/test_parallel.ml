(** The multicore parallel chase: determinism audit and pool battery.

    The doctrine under test (DESIGN.md §3.10): a parallel run is the
    {e same run} as a sequential one — applied trigger sequence, null
    stamps, journal bytes, Obs counter totals, exhaustion verdicts — no
    matter how many domains compute the matching, no matter how the
    work-stealing schedule falls.  The battery perturbs the schedule on
    purpose (randomized domain counts, injected per-domain delays via
    {!Faults.Parallel_delays}) and asserts bit-identity every time; it
    also pins the pool's contract (positional results, exception
    propagation, idempotent shutdown, no leaked domains) and the atomic
    matcher counters (parallel totals = sequential totals). *)

open Chase
open Test_util

(* ------------------------------------------------------------------ *)
(* Pool contract                                                       *)
(* ------------------------------------------------------------------ *)

let pool_map_positional () =
  let rand = Random.State.make [| 0xC0DE |] in
  for _ = 1 to 20 do
    let domains = 1 + Random.State.int rand 6 in
    let n = Random.State.int rand 51 in
    let p = Parallel.create ~domains in
    Fun.protect
      ~finally:(fun () -> Parallel.shutdown p)
      (fun () ->
        let out = Parallel.map p n (fun i -> (i * i) + 1) in
        Alcotest.(check (array int))
          (Fmt.str "map %d events over %d domains" n domains)
          (Array.init n (fun i -> (i * i) + 1))
          out;
        let st = Parallel.stats p in
        Alcotest.(check int)
          "every event computed exactly once" n
          (Array.fold_left ( + ) 0 st.Parallel.events);
        Alcotest.(check int) "one batch" (if n = 0 then 0 else 1)
          st.Parallel.batches)
  done

let pool_exception_propagates () =
  let p = Parallel.create ~domains:3 in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown p)
    (fun () ->
      (try
         ignore (Parallel.map p 16 (fun i -> if i = 11 then failwith "boom"));
         Alcotest.fail "expected the worker exception to re-raise"
       with Failure msg -> Alcotest.(check string) "exception" "boom" msg);
      (* the batch completed and the pool is still serviceable *)
      let out = Parallel.map p 8 (fun i -> i + 1) in
      Alcotest.(check (array int))
        "pool usable after a failed batch"
        (Array.init 8 (fun i -> i + 1))
        out)

let pool_shutdown_is_idempotent () =
  let before = Parallel.live_domains () in
  let p = Parallel.create ~domains:4 in
  Alcotest.(check bool) "workers spawned" true (Parallel.live_domains () > before);
  Parallel.shutdown p;
  Parallel.shutdown p;
  Alcotest.(check int) "all workers joined" before (Parallel.live_domains ());
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Parallel.map: pool is shut down") (fun () ->
      ignore (Parallel.map p 4 Fun.id))

let domain_selection_validates () =
  Alcotest.(check bool) "parse 4" true (Parallel.parse_domains "4" = Ok 4);
  Alcotest.(check bool) "parse trims" true (Parallel.parse_domains " 2 " = Ok 2);
  Alcotest.(check bool) "parse 0 rejected" true
    (Result.is_error (Parallel.parse_domains "0"));
  Alcotest.(check bool) "parse -3 rejected" true
    (Result.is_error (Parallel.parse_domains "-3"));
  Alcotest.(check bool) "parse junk rejected" true
    (Result.is_error (Parallel.parse_domains "many"));
  Alcotest.check_raises "Engine.run with domains = 0"
    (Invalid_argument "Engine.run: domains must be >= 1") (fun () ->
      ignore
        (Engine.run ~config:{ cfg with domains = 0 } (parse "p(X) -> q(X).") []));
  (* the environment spelling is lenient: malformed means 1 *)
  let env pairs k = List.assoc_opt k pairs in
  let domains_of v = (Run_env.parse (env [ ("CHASE_DOMAINS", v) ])).domains in
  Alcotest.(check int) "CHASE_DOMAINS=3" 3 (domains_of "3");
  Alcotest.(check int) "CHASE_DOMAINS=0 means 1" 1 (domains_of "0");
  Alcotest.(check int) "CHASE_DOMAINS=many means 1" 1 (domains_of "many");
  let unset = Run_env.parse (env []) in
  Alcotest.(check bool) "unset: planned, 1 domain, pruning on" true
    ((not unset.naive) && unset.domains = 1 && unset.prune);
  let set =
    Run_env.parse (env [ ("CHASE_NAIVE", "yes"); ("CHASE_NO_PRUNE", "on") ])
  in
  Alcotest.(check bool) "CHASE_NAIVE=yes, CHASE_NO_PRUNE=on" true
    (set.naive && not set.prune);
  Alcotest.(check bool) "CHASE_NAIVE=2 is not a flag" false
    (Run_env.parse (env [ ("CHASE_NAIVE", "2") ])).naive

(* ------------------------------------------------------------------ *)
(* Determinism under stress                                            *)
(* ------------------------------------------------------------------ *)

(* The applied sequence, captured literally through [on_trigger]: step,
   rule index, homomorphism, invented nulls, added facts.  Bit-identity
   of two runs is equality of these sequences plus the result counters —
   strictly stronger than comparing final instances. *)
let trace ?domains ?limits ~variant ~budget rules db =
  let log = ref [] in
  let on_trigger ~step ~rule_index ~depth ~created_nulls _rule sub added =
    log := (step, rule_index, depth, created_nulls, Subst.to_list sub, added) :: !log
  in
  let limits =
    match limits with Some l -> l | None -> Limits.of_budget budget
  in
  let r =
    let domains = Option.value domains ~default:cfg.domains in
    Engine.run ~config:{ cfg with variant; limits; domains } ~on_trigger rules db
  in
  (r, List.rev !log)

let check_same_run ctx (r1 : Engine.result) log1 (r2 : Engine.result) log2 =
  Alcotest.(check int) (ctx ^ ": sequence length") (List.length log1)
    (List.length log2);
  List.iteri
    (fun k ((s1, i1, d1, n1, h1, a1), (s2, i2, d2, n2, h2, a2)) ->
      let step ctx' = Fmt.str "%s: step %d %s" ctx k ctx' in
      Alcotest.(check int) (step "stamp") s1 s2;
      Alcotest.(check int) (step "rule") i1 i2;
      Alcotest.(check int) (step "depth") d1 d2;
      Alcotest.(check (list int)) (step "nulls") n1 n2;
      Alcotest.(check bool)
        (step "homomorphism") true
        (List.length h1 = List.length h2
        && List.for_all2
             (fun (v1, t1) (v2, t2) -> v1 = v2 && Term.equal t1 t2)
             h1 h2);
      Alcotest.(check (list atom_testable)) (step "added facts") a1 a2)
    (List.combine log1 log2);
  Alcotest.(check (list atom_testable))
    (ctx ^ ": final instance")
    (Instance.to_sorted_list r1.Engine.instance)
    (Instance.to_sorted_list r2.Engine.instance);
  Alcotest.(check int) (ctx ^ ": nulls") r1.Engine.nulls_created
    r2.Engine.nulls_created;
  Alcotest.(check bool)
    (ctx ^ ": status") true
    (Engine.exhausted r1 = Engine.exhausted r2)

let variants = [ Variant.Oblivious; Variant.Semi_oblivious; Variant.Restricted ]

let determinism_random_domains () =
  let rand = Random.State.make [| 0xD0D0 |] in
  for seed = 0 to 11 do
    let rules = Random_tgds.guarded ~seed () in
    let db = Instance.to_list (Critical.of_rules ~standard:false rules) in
    List.iter
      (fun variant ->
        let r1, log1 = trace ~variant ~budget:400 rules db in
        for _ = 1 to 2 do
          let domains = 2 + Random.State.int rand 5 in
          let rd, logd = trace ~domains ~variant ~budget:400 rules db in
          check_same_run
            (Fmt.str "guarded seed %d %a @%d domains" seed Variant.pp variant
               domains)
            r1 log1 rd logd
        done)
      variants
  done

let determinism_under_injected_delays () =
  let rules = parse "e(X, Y) -> e(Y, Z).  e(X, Y), e(Y, Z) -> e(X, Z)." in
  let db = Instance.to_list (Critical.of_rules ~standard:false rules) in
  let r1, log1 = trace ~variant:Variant.Oblivious ~budget:60 rules db in
  List.iter
    (fun delays ->
      Faults.Parallel_delays.arm delays;
      Fun.protect
        ~finally:Faults.Parallel_delays.reset
        (fun () ->
          let rd, logd =
            trace ~domains:4 ~variant:Variant.Oblivious ~budget:60 rules db
          in
          check_same_run
            (Fmt.str "delays %a"
               Fmt.(list ~sep:comma (pair int float))
               delays)
            r1 log1 rd logd))
    [
      [ (0, 0.002) ] (* the caller domain is the slow one *);
      [ (1, 0.003) ];
      [ (1, 0.001); (3, 0.002) ];
      [ (0, 0.001); (1, 0.001); (2, 0.001); (3, 0.001) ];
    ]

(* The run configuration is a value, not process state: two runs with
   different configurations — the naive matcher sequentially and the
   planned one on a 2-domain pool — running at the same time on two
   domains must each reproduce its own sequential run exactly. *)
let concurrent_runs_keep_their_configs () =
  let rules = parse "e(X, Y) -> e(Y, Z).  e(X, Y), e(Y, Z) -> e(X, Z)." in
  let db = Instance.to_list (Critical.of_rules ~standard:false rules) in
  let run config () =
    let log = ref [] in
    let on_trigger ~step ~rule_index ~depth ~created_nulls _rule sub added =
      log :=
        (step, rule_index, depth, created_nulls, Subst.to_list sub, added)
        :: !log
    in
    let r =
      Engine.run
        ~config:
          {
            config with
            variant = Variant.Oblivious;
            limits = Limits.of_budget 300;
          }
        ~on_trigger rules db
    in
    (r, List.rev !log)
  in
  let naive1 = { cfg with matcher = Hom.Naive; domains = 1 }
  and planned2 = { cfg with matcher = Hom.Planned; domains = 2 } in
  let rn, logn = run naive1 () and rp, logp = run planned2 () in
  for round = 1 to 3 do
    let a = Domain.spawn (run naive1) and b = Domain.spawn (run planned2) in
    let rn', logn' = Domain.join a and rp', logp' = Domain.join b in
    check_same_run (Fmt.str "round %d: naive@1" round) rn logn rn' logn';
    check_same_run (Fmt.str "round %d: planned@2" round) rp logp rp' logp'
  done

(* ------------------------------------------------------------------ *)
(* Journal byte-identity and cross-domain-count resume                 *)
(* ------------------------------------------------------------------ *)

let tmp_journal =
  let n = ref 0 in
  fun () ->
    Filename.concat
      (Filename.get_temp_dir_name ())
      (incr n;
       Fmt.str "chase_par_%d_%d.jnl" (Unix.getpid ()) !n)

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; Session.snapshot_path path ]

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_journaled ?domains path rules db =
  let session =
    Session.start ~journal:path
      ~snapshot:(Session.snapshot_path path)
      ~variant:Variant.Oblivious ~rules ~db ()
  in
  let config =
    {
      cfg with
      variant = Variant.Oblivious;
      limits = Limits.of_budget 500;
      domains = Option.value domains ~default:cfg.domains;
    }
  in
  let r =
    Engine.run ~config ~on_trigger:(Session.on_trigger session) rules db
  in
  Session.finish session;
  r

let journal_bytes_identical () =
  let rules = parse "e(X, Y) -> e(Y, Z).  e(X, Y), e(Y, Z) -> e(X, Z)." in
  let db = Instance.to_list (Critical.of_rules ~standard:false rules) in
  let p1 = tmp_journal () and p4 = tmp_journal () in
  Fun.protect
    ~finally:(fun () ->
      cleanup p1;
      cleanup p4)
    (fun () ->
      let r1 = run_journaled ~domains:1 p1 rules db in
      let r4 = run_journaled ~domains:4 p4 rules db in
      Alcotest.(check int) "same steps" r1.Engine.triggers_applied
        r4.Engine.triggers_applied;
      Alcotest.(check string)
        "journal bytes identical across domain counts" (read_bytes p1)
        (read_bytes p4);
      (* a journal written at 4 domains replays under 1 domain: recover
         and finish the run sequentially, landing on the 1-domain result *)
      match
        Recovery.recover ~journal:p4
          ~snapshot:(Session.snapshot_path p4)
          ~variant:Variant.Oblivious ~rules ~db ()
      with
      | Error msg -> Alcotest.fail ("recovery failed: " ^ msg)
      | Ok report ->
        let resumed =
          Engine.run
            ~config:
              {
                cfg with
                variant = Variant.Oblivious;
                limits = Limits.of_budget 500;
                domains = 1;
              }
            ~resume:report.Recovery.resume rules db
        in
        Alcotest.(check (list atom_testable))
          "resumed instance = original"
          (Instance.to_sorted_list r4.Engine.instance)
          (Instance.to_sorted_list resumed.Engine.instance))

(* ------------------------------------------------------------------ *)
(* Cancellation and exhaustion leave no domain behind                  *)
(* ------------------------------------------------------------------ *)

let exhaustion_leaves_no_domains () =
  let rules = parse "e(X, Y) -> e(Y, Z).  e(X, Y), e(Y, Z) -> e(X, Z)." in
  let db = Instance.to_list (Critical.of_rules ~standard:false rules) in
  let baseline = Parallel.live_domains () in
  List.iter
    (fun injection ->
      let plan = Faults.create [ (20, injection) ] in
      let limits =
        Faults.arm plan
          (Limits.make ~max_triggers:100_000 ~timeout:60. ~cancel:(Limits.Cancel.create ()) ())
      in
      let r = chase ~config:{ cfg with domains = 4 } ~limits rules db in
      Alcotest.(check bool)
        (Fmt.str "%a: structured exhaustion" Faults.pp_injection injection)
        true (exhausted r);
      Alcotest.(check int)
        (Fmt.str "%a: no leaked domain" Faults.pp_injection injection)
        baseline (Parallel.live_domains ());
      (* the degraded prefix is still provenance-sound *)
      Alcotest.(check bool)
        (Fmt.str "%a: sound prefix" Faults.pp_injection injection)
        true
        (Result.is_ok (Engine.check_provenance r ~db)))
    [ Faults.Cancel "parallel-test"; Faults.Expire_deadline;
      Faults.Trip_trigger_cap ]

(* ------------------------------------------------------------------ *)
(* Atomic matcher counters: parallel totals = sequential totals        *)
(* ------------------------------------------------------------------ *)

let stats_totals_agree () =
  let rules = Random_tgds.guarded ~seed:7 () in
  let db = Instance.to_list (Critical.of_rules ~standard:false rules) in
  let measure domains =
    let h0 = Hom.Stats.snapshot () in
    let p0 = Plan.Stats.snapshot () in
    ignore (chase ~config:{ cfg with domains } ~budget:400 rules db);
    (Hom.Stats.diff h0 (Hom.Stats.snapshot ()),
     Plan.Stats.diff p0 (Plan.Stats.snapshot ()))
  in
  let h1, p1 = measure 1 in
  List.iter
    (fun domains ->
      let hd, pd = measure domains in
      let ctx s = Fmt.str "@%d domains: %s" domains s in
      Alcotest.(check int) (ctx "probes") h1.Hom.Stats.probes hd.Hom.Stats.probes;
      Alcotest.(check int) (ctx "full scans") h1.Hom.Stats.full_scans
        hd.Hom.Stats.full_scans;
      Alcotest.(check int) (ctx "candidates") h1.Hom.Stats.candidates
        hd.Hom.Stats.candidates;
      Alcotest.(check int) (ctx "matches") h1.Hom.Stats.matches
        hd.Hom.Stats.matches;
      Alcotest.(check int) (ctx "planned probe cost")
        h1.Hom.Stats.planned_probe_cost hd.Hom.Stats.planned_probe_cost;
      Alcotest.(check int) (ctx "naive probe cost")
        h1.Hom.Stats.naive_probe_cost hd.Hom.Stats.naive_probe_cost;
      Alcotest.(check int) (ctx "plans") p1.Plan.Stats.plans pd.Plan.Stats.plans;
      Alcotest.(check int) (ctx "estimates") p1.Plan.Stats.estimates
        pd.Plan.Stats.estimates)
    [ 2; 4 ]

(* PR 8's attribution caveat, closed: per-rule probe counts come from
   the matcher's domain-local candidate counters, so a parallel run's
   per-rule profile equals the sequential run's — not just the grand
   total. *)
let per_rule_probes_agree () =
  let rules = Random_tgds.guarded ~seed:11 () in
  let db = Instance.to_list (Critical.of_rules ~standard:false rules) in
  let profile domains =
    let obs = Obs.create [] in
    ignore
      (Engine.run
         ~config:
           {
             cfg with
             variant = Variant.Oblivious;
             limits = Limits.of_budget 300;
             domains;
           }
         ~obs rules db);
    let m = Obs.metrics obs in
    List.map
      (fun label -> (label, Metrics.counter_value m ~label "chase.rule.probes"))
      (List.sort compare (Metrics.labels_of m "chase.rule.probes"))
  in
  let seq = profile 1 in
  Alcotest.(check bool)
    "sequential profile attributes probes" true
    (List.exists (fun (_, v) -> v > 0) seq);
  List.iter
    (fun domains ->
      Alcotest.(check (list (pair string int)))
        (Fmt.str "@%d domains: per-rule probes" domains)
        seq (profile domains))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Per-domain observability                                            *)
(* ------------------------------------------------------------------ *)

let parallel_metrics_present () =
  let rules = parse "e(X, Y) -> e(Y, Z).  e(X, Y), e(Y, Z) -> e(X, Z)." in
  let db = Instance.to_list (Critical.of_rules ~standard:false rules) in
  let obs = Obs.create [] in
  ignore
    (Engine.run
       ~config:
         {
           cfg with
           variant = Variant.Oblivious;
           limits = Limits.of_budget 120;
           domains = 3;
         }
       ~obs rules db);
  let m = Obs.metrics obs in
  let total name =
    List.fold_left
      (fun acc label -> acc + Metrics.counter_value m ~label name)
      (Metrics.counter_value m name)
      (Metrics.labels_of m name)
  in
  Alcotest.(check bool) "batches counted" true (total "chase.parallel.batches" > 0);
  Alcotest.(check bool) "events counted" true (total "chase.parallel.events" > 0);
  Alcotest.(check (list string))
    "per-domain event labels"
    [ "domain0"; "domain1"; "domain2" ]
    (Metrics.labels_of m "chase.parallel.events");
  match Metrics.gauge_value m "chase.parallel.domains" with
  | Some g -> Alcotest.(check int) "domains gauge" 3 (int_of_float g)
  | None -> Alcotest.fail "chase.parallel.domains gauge missing"

let suite =
  [
    Alcotest.test_case "pool: positional results, randomized shapes" `Quick
      pool_map_positional;
    Alcotest.test_case "pool: worker exception re-raises in caller" `Quick
      pool_exception_propagates;
    Alcotest.test_case "pool: shutdown idempotent, no leaked domains" `Quick
      pool_shutdown_is_idempotent;
    Alcotest.test_case "selection: --domains/CHASE_DOMAINS validation" `Quick
      domain_selection_validates;
    Alcotest.test_case "determinism: randomized domain counts (guarded)" `Slow
      determinism_random_domains;
    Alcotest.test_case "config: concurrent runs keep their configs" `Quick
      concurrent_runs_keep_their_configs;
    Alcotest.test_case "determinism: injected per-domain delays" `Quick
      determinism_under_injected_delays;
    Alcotest.test_case "journal: bytes identical @4 vs @1, cross-resume" `Quick
      journal_bytes_identical;
    Alcotest.test_case "governance: cancellation/deadline leak no domain"
      `Quick exhaustion_leaves_no_domains;
    Alcotest.test_case "stats: parallel totals = sequential totals" `Quick
      stats_totals_agree;
    Alcotest.test_case "stats: per-rule probes exact under parallelism" `Quick
      per_rule_probes_agree;
    Alcotest.test_case "obs: per-domain parallel metrics" `Quick
      parallel_metrics_present;
  ]
