(* decide-corpus: the paper's own question, time to a termination verdict,
   on a fixed corpus of simple-linear, linear and guarded rule sets with
   constants (Theorems 1, 2 and 4).

   One operation is one verdict from [Decide.check], the call the
   chase-termination CLI makes, timed in a forked copy of this process:
   a fresh process costs about 100 times a simple-linear verdict, and a
   verdict timed in one long-lived process inherits the garbage and the
   grown heap of the sets before it.

   Every verdict is checked against the critical-instance chase to a
   fixed trigger budget, the paper's own reduction and the workload's
   oracle: "diverges" with a terminating oracle chase is a failed
   operation.  "terminates" with an exhausted one is only unconfirmed,
   since the budget bounds the oracle. *)

open Chase
open Util

let variant = Variant.Semi_oblivious
let oracle_budget = 2000

type set = { index : int; kind : Gen.kind; rules : Tgd.t list }

(* The deciding procedure a verdict names. *)
let procedure (v : Verdict.t) =
  match v.Verdict.procedure with
  | "weak-acyclicity" | "rich-acyclicity" -> `Sl
  | "critical-weak-acyclicity" | "critical-rich-acyclicity" -> `Linear
  | "guarded-types" -> `Guarded
  | _ -> `Other

let oracle rules =
  let db = Instance.to_list (Critical.of_rules rules) in
  Engine.run ~config:(Engine.config_of_budget ~variant oracle_budget) rules db

(* One set's sample, in a forked child that starts from the same heap
   for every set: the verdict (the operation) and the oracle chase,
   each timed; whether the oracle terminated, and after how many
   triggers. *)
type sample = {
  verdict_s : float;
  answer : Verdict.answer;
  oracle_s : float;
  terminated : bool;
  triggers : int;
}

let time_set s =
  in_child_rss (fun () ->
      Gc.compact ();
      let verdict_s, answer =
        fastest ~short:0.005 (fun () -> Verdict.answer (Decide.check ~variant s.rules))
      in
      let oracle_s, (terminated, triggers) =
        fastest ~short:0.005 (fun () ->
            let res = oracle s.rules in
            (not (Engine.exhausted res), res.Engine.triggers_applied))
      in
      { verdict_s; answer; oracle_s; terminated; triggers })

let corpus_size ~smoke = if smoke then 12 else 120

let deal ~seed sets =
  let a = Array.copy sets in
  Gen.shuffle (Random.State.make [| seed; 3 |]) a;
  a

let generate ~size =
  Array.mapi (fun index (kind, rules) -> { index; kind; rules }) (Gen.corpus ~size)

(* The in-process layer calls of one rule set under the benchmark's
   spans. *)
let layer_costs ~label rules =
  Gc.compact ();
  root_span "bench.decide" ~args:[ ("set", Jsonv.String label) ] (fun root ->
      let t name f = time (fun () -> span root name f) in
      let classify_s, _ = t "classify" (fun () -> Classify.classify rules) in
      let flow_s, _ = t "flow.build" (fun () -> Flow.build rules) in
      let critical_s, _ = t "critical.build" (fun () -> Critical.of_rules rules) in
      let decide_s, v = t "decide.check" (fun () -> Decide.check ~variant rules) in
      (classify_s, flow_s, critical_s, decide_s, v))

(* The traced run's Critical, Classify/Flow and Decide ledger over
   [sets] (label and rules): each set's layer calls, [reps] times, each
   from a compacted heap, and its oracle chase; a set's times are the
   median of its repetitions.  The verdict time is also split by the
   procedure each verdict names.  [on_verdict] sees every verdict with
   its oracle. *)
let rule_layers ?(on_verdict = fun _ _ ~terminated:_ ~triggers:_ -> ()) ~reps sets =
  let one (label, rules) =
    let runs = List.init reps (fun _ -> layer_costs ~label rules) in
    let res = oracle rules in
    let terminated = not (Engine.exhausted res) in
    let _, _, _, _, v = List.hd runs in
    on_verdict (label, rules) v ~terminated ~triggers:res.Engine.triggers_applied;
    let med f = median (List.map f runs) in
    ( med (fun (c, _, _, _, _) -> c),
      med (fun (_, f, _, _, _) -> f),
      med (fun (_, _, c, _, _) -> c),
      med (fun (_, _, _, d, _) -> d),
      v,
      terminated )
  in
  let costs = List.map one sets in
  let n = List.length sets in
  let by f = sum (List.map f costs) in
  let check_s = by (fun (_, _, _, d, _, _) -> d) in
  let share p = by (fun (_, _, _, d, v, _) -> if procedure v = p then d else 0.) /. check_s in
  let note = Printf.sprintf "%d rule sets, median of %d" n reps in
  report "classify.s" "s" (by (fun (c, _, _, _, _, _) -> c)) ~note;
  report "flow.build_s" "s" (by (fun (_, f, _, _, _, _) -> f));
  report "critical.build_s" "s" (by (fun (_, _, c, _, _, _) -> c));
  report "decide.check_s" "s" check_s;
  report "decide.sl_frac" "ratio" (share `Sl) ~note:"share of decide.check_s";
  report "decide.linear_frac" "ratio" (share `Linear);
  report "decide.guarded_frac" "ratio" (share `Guarded);
  report "decide.decided_frac" "ratio"
    (by (fun (_, _, _, _, v, _) -> if Verdict.answer v <> Verdict.Unknown then 1. else 0.)
    /. float_of_int n);
  count "oracle.contradictions"
    (List.length
       (List.filter (fun (_, _, _, _, v, terminated) -> Verdict.answer v = Verdict.Diverges && terminated) costs))

(* The run's verdicts (--trace 0), or, traced, the corpus's rule-layer
   ledger; either way the corpus as programs, each with its critical
   instance, for the traced run's engine ledger. *)
let run ~seconds ~trace ~seed ~smoke =
  let size = corpus_size ~smoke in
  (* set-up: generate the corpus and deal it, then decide set 0, which is
     the same set for every seed, untimed.  One is timed before the first
     verdict and one more after every [setup_every] sets, so that setup_s
     is the median of set-ups spread over the whole run. *)
  let setup_every = 8 in
  let setup () =
    calibrate ();
    fst
      (time (fun () ->
           let c = generate ~size in
           ignore (deal ~seed c);
           ignore (in_child (fun () -> Decide.check ~variant c.(0).rules))))
  in
  let setup_times = ref [ setup () ] in
  let corpus = deal ~seed (generate ~size) in
  (* "diverges" with a terminating oracle chase is a wrong verdict: a
     failed operation each time the set is decided *)
  let check_op s answer ~terminated ~triggers =
    attempt ();
    if answer = Verdict.Diverges && terminated then
      op_failed "set %d (%s): diverges, but the critical chase terminates after %d triggers:\n%s"
        s.index (Gen.kind_name s.kind) triggers (Gen.rules_text s.rules)
  in
  (* every sample of each set, latest first *)
  let samples = Array.make size [] in
  let timed = ref 0 in
  let pass sets =
    List.iter
      (fun i ->
        incr timed;
        if !timed mod setup_every = 0 then setup_times := setup () :: !setup_times;
        let x, rss_kb = time_set corpus.(i) in
        check_op corpus.(i) x.answer ~terminated:x.terminated ~triggers:x.triggers;
        samples.(i) <- (x, rss_kb) :: samples.(i))
      sets
  in
  if not trace then begin
    (* The first pass times every set.  The sets it finds heavy (a verdict
       over [heavy_s]: nine guarded sets, above op_ms_p90) are not timed
       again; a pass over the others takes about 2 s, and [light_passes]
       more of them, a count fixed by [seconds] so that every run computes
       the same statistic, spread each set's samples over the run.  Each
       set keeps its fastest sample, since a burst on the host slows every
       verdict it overlaps, and a burst can last seconds. *)
    let heavy_s = 0.02 and light_passes = max 1 (int_of_float (seconds /. 3.)) in
    let all = List.init size Fun.id in
    pass all;
    let light = List.filter (fun i -> (fst (List.hd samples.(i))).verdict_s < heavy_s) all in
    for _ = 1 to light_passes do
      pass light
    done;
    let first = Array.map (fun l -> List.nth l (List.length l - 1)) samples in
    let terminating = Array.fold_left (fun n (x, _) -> if x.terminated then n + 1 else n) 0 first in
    Printf.printf
      "# corpus: %d sets, %d of them heavy; the oracle chase terminates on %d and exhausts its \
       budget on %d\n"
      size (size - List.length light) terminating (size - terminating);
    let per_set f =
      List.map (fun l -> 1e3 *. List.fold_left (fun a (x, _) -> Float.min a (f x)) infinity l)
        (Array.to_list samples)
    in
    let verdict_ms = per_set (fun x -> x.verdict_s) and oracle_ms = per_set (fun x -> x.oracle_s) in
    let note = Printf.sprintf "each set the fastest of its samples (1 or %d)" (light_passes + 1) in
    timing "setup_s" "s" ~samples:(List.length !setup_times) (median !setup_times)
      ~note:"median of the set-ups";
    timing "op_ms_p50" "ms" ~scaled:false ~samples:size (median verdict_ms) ~note;
    timing "op_ms_p90" "ms" ~scaled:false ~listed:false ~samples:size (quantile 0.9 verdict_ms) ~note;
    report "peak_rss_mb" "MB"
      (median (List.map (fun (_, kb) -> float_of_int kb /. 1024.) (Array.to_list first)))
      ~note:(Printf.sprintf "median of %d verdict processes" size);
    timing "corpus_s" "s" ~scaled:false ~listed:false ~samples:size (sum verdict_ms /. 1e3) ~note;
    timing "oracle_ms_p50" "ms" ~scaled:false ~listed:false ~samples:size (median oracle_ms) ~note
  end
  else
    rule_layers ~reps:1
      ~on_verdict:(fun (label, _) v ~terminated ~triggers ->
        check_op corpus.(int_of_string label) (Verdict.answer v) ~terminated ~triggers)
      (Array.to_list (Array.mapi (fun i s -> (string_of_int i, s.rules)) corpus));
  Array.to_list
    (Array.map
       (fun s ->
         {
           Layers.text = Gen.rules_text s.rules;
           db = Layers.Critical_instance;
           variant;
           budget = oracle_budget;
           expect = None;
         })
       corpus)
