(** Verdict explanation: the {!Chase_termination.Decide} dispatch with
    causal diagnostics recovered from the deciding procedure itself. *)

open Chase_logic
module Classify = Chase_classes.Classify
module Critical_linear = Chase_acyclicity.Critical_linear
module Rich = Chase_acyclicity.Rich
module Weak = Chase_acyclicity.Weak
module Variant = Chase_engine.Variant
module Verdict = Chase_termination.Verdict

type t = {
  verdict : Verdict.t;
  diagnostics : Diagnostic.t list;
}

let line_of_rule lrules idx =
  match List.nth_opt lrules idx with Some (_, line) -> Some line | None -> None

let label_of_rule lrules idx =
  match List.nth_opt lrules idx with
  | Some (r, _) -> Some (Diagnostic.rule_label idx r)
  | None -> None

(* ---- simple linear: the dangerous cycle IS the cause (Theorem 1) ---- *)

let simple_linear_cause ~variant rules =
  let graph, cycle =
    match (variant : Variant.t) with
    | Oblivious -> ("extended-dependency", Rich.check rules)
    | Semi_oblivious -> ("dependency", Weak.check rules)
    | Restricted -> invalid_arg "Explain: restricted has no graph cause"
  in
  match cycle with
  | None -> []
  | Some positions ->
    let msg =
      Fmt.str
        "the %s graph has a cycle through a special edge: %a — on simple \
         linear rules every such cycle is realizable (Theorem 1), so the \
         chase diverges"
        graph
        (Util.pp_list " -> " Chase_acyclicity.Dep_graph.pp_position)
        positions
    in
    [
      Diagnostic.make Diagnostic.W020
        ~witness:(Diagnostic.Position_cycle { graph; positions })
        msg;
    ]

(* ---- linear: confirmed pump of the critical procedure (Theorem 2) ---- *)

let pump_diagnostic lrules rules cert =
  let real = Critical_linear.realize rules cert in
  let steps =
    List.map
      (fun (tr : Critical_linear.transition) -> (tr.rule_idx, tr.head_idx))
      cert.Critical_linear.cycle
  in
  let rule_idxs = List.sort_uniq compare (List.map fst steps) in
  let first_idx = List.hd (List.map fst steps) in
  let msg =
    Fmt.str
      "confirmed pump through rule%s %a (replayed %d laps); one lap with \
       fresh nulls: %a"
      (match rule_idxs with [ _ ] -> "" | _ -> "s")
      (Util.pp_list ", " Fmt.string)
      (List.filter_map (label_of_rule lrules) rule_idxs)
      cert.Critical_linear.laps_checked
      (Util.pp_list " -> " Atom.pp)
      real.Critical_linear.facts
  in
  Diagnostic.make Diagnostic.W021
    ?line:(line_of_rule lrules first_idx)
    ?rule:(label_of_rule lrules first_idx)
    ~witness:
      (Diagnostic.Pump
         {
           start = Pattern.to_string cert.Critical_linear.start;
           steps;
           facts = real.Critical_linear.facts;
           substitution = Subst.to_list real.Critical_linear.first_subst;
           laps = cert.Critical_linear.laps_checked;
         })
    msg

(* The verdict construction mirrors {!Chase_termination.Linear.check}
   (same procedure names and answers); running the critical procedure
   once here yields both the verdict and the certificate. *)
let linear_explain ?config ~standard ~variant lrules rules =
  let procedure, outcome =
    match (variant : Variant.t) with
    | Oblivious ->
      ("critical-rich-acyclicity", Critical_linear.check_oblivious ?config ~standard rules)
    | Semi_oblivious ->
      ( "critical-weak-acyclicity",
        Critical_linear.check_semi_oblivious ?config ~standard rules )
    | Restricted -> invalid_arg "Explain: restricted is not Theorem 2 territory"
  in
  match outcome with
  | Critical_linear.Terminating ->
    {
      verdict =
        Verdict.terminates ~procedure
          ~evidence:
            "no productive lasso in the pattern-transition system, and the \
             chase of the critical instance closes";
      diagnostics = [];
    }
  | Critical_linear.Inconclusive msg ->
    { verdict = Verdict.unknown ~procedure ~evidence:msg; diagnostics = [] }
  | Critical_linear.Non_terminating cert ->
    {
      verdict =
        Verdict.diverges ~procedure
          ~evidence:
            (Fmt.str "confirmed pump (%d laps replayed): %a"
               cert.Critical_linear.laps_checked
               (Critical_linear.pp_certificate rules)
               cert);
      diagnostics = [ pump_diagnostic lrules rules cert ];
    }

(* ---- guarded: recurring cloud type along a guard chain (Theorem 4) ---- *)

let guarded_cause ?(config = Chase_engine.Engine.default_config) ~standard
    ~budget ~variant rules =
  let open Chase_engine in
  let crit = Critical.of_rules ~standard rules in
  let config = { config with Engine.variant; limits = Limits.of_budget budget } in
  let result = Engine.run ~config rules (Instance.to_list crit) in
  match Chase_termination.Guarded.find_pump result with
  | None -> []
  | Some pump ->
    let occurrences = pump.Chase_termination.Guarded.occurrences in
    let chain_length = pump.Chase_termination.Guarded.chain_length in
    let shown = List.filteri (fun i _ -> i < 4) occurrences in
    let msg =
      Fmt.str
        "recurring cloud type along one guard chain of the critical \
         instance (%d occurrences, chain length %d): %a%s — the branch is \
         self-similar, so the chase diverges (Theorem 4)"
        (List.length occurrences)
        chain_length
        (Util.pp_list " -> " Atom.pp)
        shown
        (if List.length occurrences > 4 then ", ..." else "")
    in
    [
      Diagnostic.make Diagnostic.W021
        ~witness:(Diagnostic.Guard_chain { occurrences; chain_length })
        msg;
    ]

(* ---- the front door ---- *)

let check ?config ?(standard = true)
    ?(budget = Chase_termination.Guarded.default_budget) ~variant lrules =
  let rules = List.map fst lrules in
  match (variant : Variant.t) with
  | Restricted ->
    {
      verdict =
        Chase_termination.Decide.check ?config ~standard ~budget ~variant rules;
      diagnostics = [];
    }
  | Oblivious | Semi_oblivious -> (
    match Classify.classify rules with
    | Classify.Simple_linear ->
      let verdict = Chase_termination.Sl.check ~variant rules in
      let diagnostics =
        if Verdict.is_diverging verdict then simple_linear_cause ~variant rules
        else []
      in
      { verdict; diagnostics }
    | Classify.Linear -> linear_explain ?config ~standard ~variant lrules rules
    | Classify.Guarded ->
      let verdict =
        Chase_termination.Guarded.check ?config ~standard ~budget ~variant
          rules
      in
      let diagnostics =
        if Verdict.is_diverging verdict then
          guarded_cause ?config ~standard ~budget ~variant rules
        else []
      in
      { verdict; diagnostics }
    | Classify.Unguarded ->
      {
        verdict =
          Chase_termination.Decide.check ?config ~standard ~budget ~variant
            rules;
        diagnostics = [];
      })
