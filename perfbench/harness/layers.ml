(* The in-process layer battery of a traced run (--trace 1).

   Each workload hands over the programs its operations carry, and [run]
   calls each layer's public entry point on them, one call at a time,
   under the benchmark's own Tracectx spans: Parser, Instance and the
   Engine, with Hom/Plan statistics, an in-memory Obs registry (per-rule
   match time, Relevance's pruning counters) and an [on_trigger] clock.
   A decide set has no database of its own; its engine run is the
   critical-instance chase, the workload's oracle. *)

open Chase
open Util

type db = Parsed | Critical_instance

type program = {
  text : string;
  db : db;
  variant : Variant.t;
  budget : int;
  expect : (int * int) option;  (** predicted facts and triggers *)
}

let parse p =
  match p.db with
  | Parsed -> (
    match Parser.parse_program p.text with
    | Ok rd -> rd
    | Error e -> failwith ("program does not parse: " ^ e))
  | Critical_instance -> (
    match Parser.parse_rules p.text with
    | Ok r -> (r, Instance.to_list (Critical.of_rules r))
    | Error e -> failwith ("rule set does not parse: " ^ e))

let config p = Engine.config_of_budget ~variant:p.variant p.budget

(* One program's layer costs; times in seconds. *)
type cost = {
  parse_s : float;
  load_s : float;
  run_s : float;
  match_s : float;
  hom : Hom.Stats.snapshot;
  plans : int;
  triggers : int;
  facts : int;
  words : float;  (** allocated by the engine run *)
  db_facts : int;
  db_words : int;  (** reachable from the loaded database *)
  result_words : int;  (** reachable from the engine's result *)
  considered : int;
  skipped : int;
  gaps_us : float list;
}

(* Trigger clock stamps kept per run. *)
let max_stamps = 400_000

let rule_match_s m =
  List.fold_left
    (fun acc label ->
      match Metrics.hist_stats m ~label "chase.rule.match_s" with
      | Some (_, s, _, _, _, _, _) -> acc +. s
      | None -> acc)
    0.
    (Metrics.labels_of m "chase.rule.match_s")

let measure ~heap p =
  Gc.compact ();
  root_span "bench.layers" (fun root ->
      let t name f = time (fun () -> span root name f) in
      let parse_s, (rules, db) = t "parser.parse" (fun () -> parse p) in
      let load_s, ins = t "instance.load" (fun () -> Instance.of_list db) in
      let db_words = if heap then Obj.reachable_words (Obj.repr ins) else 0 in
      let obs = Obs.create [] in
      let stamps = Float.Array.make max_stamps 0. in
      let k = ref 0 in
      let on_trigger ~step:_ ~rule_index:_ ~depth:_ ~created_nulls:_ _ _ _ =
        if !k < max_stamps then begin
          Float.Array.set stamps !k (now ());
          incr k
        end
      in
      let h0 = Hom.Stats.snapshot () and p0 = Plan.Stats.snapshot () in
      let w0 = allocated_words () in
      let run_s, res =
        t "engine.run" (fun () -> Engine.run ~config:(config p) ~obs ~on_trigger rules db)
      in
      let words = allocated_words () -. w0 in
      let hom = Hom.Stats.diff h0 (Hom.Stats.snapshot ()) in
      let plans = (Plan.Stats.diff p0 (Plan.Stats.snapshot ())).Plan.Stats.plans in
      let m = Obs.metrics obs in
      let facts = Instance.cardinal res.Engine.instance in
      (match p.expect with
      | Some (f, tr) when f <> facts || tr <> res.Engine.triggers_applied ->
        run_wrong "layer pass: %d facts / %d triggers, predicted %d / %d" facts
          res.Engine.triggers_applied f tr
      | _ -> ());
      {
        parse_s;
        load_s;
        run_s;
        match_s = rule_match_s m;
        hom;
        plans;
        triggers = res.Engine.triggers_applied;
        facts;
        words;
        db_facts = List.length db;
        db_words;
        result_words = (if heap then Obj.reachable_words (Obj.repr res) else 0);
        considered = Metrics.counter_value m "chase.prune.considered";
        skipped = Metrics.counter_value m "chase.prune.enqueues_skipped";
        gaps_us =
          List.init (max 0 (!k - 1)) (fun i ->
              1e6 *. (Float.Array.get stamps (i + 1) -. Float.Array.get stamps i));
      })

(* The tracing cost: the same parse, load and chase with the benchmark's
   spans written and without, alternating so that drift hits both; the
   traced median against the untraced one. *)
let overhead ~seconds programs =
  let n = List.length programs in
  let once p =
    Gc.compact ();
    fst
      (time (fun () ->
           root_span "bench.chase" (fun root ->
               let rules, db = span root "parser.parse" (fun () -> parse p) in
               let _ = span root "instance.load" (fun () -> Instance.of_list db) in
               span root "engine.run" (fun () -> Engine.run ~config:(config p) rules db))))
  in
  let untraced p =
    let w = !shard in
    shard := None;
    let secs = once p in
    shard := w;
    secs
  in
  (* which of the two goes first alternates too *)
  let pairs =
    repeat ~seconds ~min_reps:n (fun k ->
        let p = List.nth programs (k mod n) in
        if k mod 2 = 0 then
          let plain = untraced p in
          (plain, once p)
        else
          let traced = once p in
          (untraced p, traced))
  in
  report "obs.trace_overhead_frac" "ratio"
    ((median (List.map snd pairs) /. median (List.map fst pairs)) -. 1.)
    ~note:(Printf.sprintf "%d traced/untraced pairs" (List.length pairs))

let ratio a b = float_of_int a /. float_of_int (max 1 b)

(* Layer passes over [programs] repeat for [seconds] (at least one);
   times are the median over passes of each layer's total, counts come
   from the first pass (they are the same in every pass).
   [with_overhead] is off where the workload measures the tracing cost
   on its own operations. *)
let run ~seconds ?(with_overhead = true) programs =
  let t_end = now () +. seconds in
  if with_overhead then overhead ~seconds:(seconds /. 4.) programs;
  let first = List.map (measure ~heap:true) programs in
  let passes =
    first
    :: repeat ~seconds:(t_end -. now ()) ~min_reps:0 (fun _ ->
           List.map (measure ~heap:false) programs)
  in
  let total f = median (List.map (fun pass -> sum (List.map f pass)) passes) in
  let isum f = List.fold_left (fun a c -> a + f c) 0 first in
  report "parser.parse_s" "s" (total (fun c -> c.parse_s))
    ~note:(Printf.sprintf "%d programs, median of %d passes" (List.length programs) (List.length passes));
  report "instance.load_s" "s" (total (fun c -> c.load_s));
  report "instance.words_per_fact" "words"
    (ratio (isum (fun c -> c.db_words)) (isum (fun c -> c.db_facts)));
  let hom f = isum (fun c -> f c.hom) in
  let matches = hom (fun h -> h.Hom.Stats.matches) in
  count "hom.candidates" (hom (fun h -> h.Hom.Stats.candidates));
  count "hom.probes" (hom (fun h -> h.Hom.Stats.probes));
  count "hom.matches" matches;
  report "hom.candidates_per_match" "ratio" (ratio (hom (fun h -> h.Hom.Stats.candidates)) matches);
  count "plan.plans" (isum (fun c -> c.plans));
  let run_s = total (fun c -> c.run_s) and match_s = total (fun c -> c.match_s) in
  report "engine.run_s" "s" run_s;
  report "engine.match_s" "s" match_s;
  report "engine.rest_s" "s" (run_s -. match_s);
  let triggers = isum (fun c -> c.triggers) and facts = isum (fun c -> c.facts) in
  count "engine.triggers" triggers;
  count "engine.facts" facts;
  report "engine.dup_trigger_frac" "ratio" (1. -. ratio triggers matches);
  report "engine.words_per_trigger" "words"
    (sum (List.map (fun c -> c.words) first) /. float_of_int (max 1 triggers));
  report "engine.heap_bytes_per_fact" "B" (ratio (isum (fun c -> c.result_words) * word_bytes) facts);
  let gaps = List.concat_map (fun pass -> List.concat_map (fun c -> c.gaps_us) pass) passes in
  report "engine.trigger_us_p50" "us" (quantile 0.5 gaps);
  report "engine.trigger_us_p99" "us" (quantile 0.99 gaps);
  report "relevance.skip_frac" "ratio" (ratio (isum (fun c -> c.skipped)) (isum (fun c -> c.considered)))

(* ------------------------------------------------------------------ *)
(* The dedup probe: one program under two alpha-renamings               *)
(* ------------------------------------------------------------------ *)

(* Rename every rule's variables to V00, V01, ... in order of how many
   distinct values the database holds at each variable's first body
   position: [high_first] puts the high-cardinality variables first in
   the name order, otherwise last.  Existential variables have no
   database values and rank lowest. *)
let rename ~high_first db rules =
  List.map
    (fun r ->
      let card = Hashtbl.create 8 in
      List.iter
        (fun a ->
          Array.iteri
            (fun i t ->
              match t with
              | Term.Var v when not (Hashtbl.mem card v) ->
                Hashtbl.replace card v (Instance.distinct_at db (Atom.pred a) i)
              | _ -> ())
            (Atom.args a))
        (Tgd.body r);
      let vars =
        Chase_logic.Util.Sset.elements (Tgd.body_vars r)
        @ Chase_logic.Util.Sset.elements (Tgd.existentials r)
      in
      let rank v = Option.value ~default:0 (Hashtbl.find_opt card v) in
      let order =
        List.stable_sort
          (fun a b -> if high_first then compare (rank b) (rank a) else compare (rank a) (rank b))
          vars
      in
      let names = List.mapi (fun i v -> (v, Printf.sprintf "V%02d" i)) order in
      let f = function Term.Var v -> Term.Var (List.assoc v names) | t -> t in
      Tgd.make_exn ~name:(Tgd.name r) ~body:(List.map (Atom.map_terms f) (Tgd.body r))
        ~head:(List.map (Atom.map_terms f) (Tgd.head r)) ())
    rules

(* engine.rename_cost_ratio: the worst-to-best median time of one pass
   of [Engine.run] over [programs] under each of the two renamings,
   alternating until [seconds] are spent.  Renaming may not change the
   work: candidates examined and triggers applied must agree. *)
let rename_probe ~seconds programs =
  let prepared =
    List.map
      (fun p ->
        let rules, db = parse p in
        let ins = Instance.of_list db in
        (p, db, [| rename ~high_first:true ins rules; rename ~high_first:false ins rules |]))
      programs
  in
  let once i =
    Gc.compact ();
    root_span "bench.rename" ~args:[ ("high_first", Jsonv.Bool (i = 0)) ] (fun root ->
        let h0 = Hom.Stats.snapshot () in
        let secs, triggers =
          time (fun () ->
              span root "engine.run" (fun () ->
                  List.fold_left
                    (fun n (p, db, variants) ->
                      n + (Engine.run ~config:(config p) variants.(i) db).Engine.triggers_applied)
                    0 prepared))
        in
        (secs, (Hom.Stats.diff h0 (Hom.Stats.snapshot ())).Hom.Stats.candidates, triggers))
  in
  let runs = repeat ~seconds ~min_reps:2 (fun k -> (k mod 2, once (k mod 2))) in
  let of_ i = List.filter_map (fun (j, r) -> if i = j then Some r else None) runs in
  let med i = median (List.map (fun (s, _, _) -> s) (of_ i)) in
  let work i = match of_ i with (_, c, t) :: _ -> (c, t) | [] -> (0, 0) in
  if work 0 <> work 1 then
    run_wrong "renaming changed the work: candidates/triggers %d/%d vs %d/%d" (fst (work 0))
      (snd (work 0)) (fst (work 1)) (snd (work 1));
  let a = med 0 and b = med 1 in
  report "engine.rename_cost_ratio" "ratio" (Float.max a b /. Float.min a b)
    ~note:
      (Printf.sprintf "%d programs; high-cardinality variables first %.4f s, last %.4f s, %d passes"
         (List.length programs) a b (List.length runs))
