(** Termination for linear TGDs — Theorem 2.

    Delegates to the critical-rich/weak acyclicity procedure of
    {!Chase_acyclicity.Critical_linear}: a pattern-transition analysis of
    the chase of the critical instance, with every non-termination answer
    backed by a concretely confirmed pumping cycle. *)

open Chase_engine
open Chase_acyclicity

let check ?config ?(standard = true) ~variant rules =
  match (variant : Variant.t) with
  | Oblivious -> (
    match Critical_linear.check_oblivious ?config ~standard rules with
    | Critical_linear.Terminating ->
      Verdict.terminates ~procedure:"critical-rich-acyclicity"
        ~evidence:
          "no productive lasso in the pattern-transition system, and the \
           chase of the critical instance closes"
    | Critical_linear.Non_terminating cert ->
      Verdict.diverges ~procedure:"critical-rich-acyclicity"
        ~evidence:
          (Fmt.str "confirmed pump (%d laps replayed): %a" cert.laps_checked
             (Critical_linear.pp_certificate rules)
             cert)
    | Critical_linear.Inconclusive msg ->
      Verdict.unknown ~procedure:"critical-rich-acyclicity" ~evidence:msg)
  | Semi_oblivious -> (
    match Critical_linear.check_semi_oblivious ?config ~standard rules with
    | Critical_linear.Terminating ->
      Verdict.terminates ~procedure:"critical-weak-acyclicity"
        ~evidence:
          "no cycle of frontier-productive transitions in the \
           pattern-transition system, and the chase of the critical \
           instance closes"
    | Critical_linear.Non_terminating cert ->
      Verdict.diverges ~procedure:"critical-weak-acyclicity"
        ~evidence:
          (Fmt.str "confirmed pump (%d laps replayed): %a" cert.laps_checked
             (Critical_linear.pp_certificate rules)
             cert)
    | Critical_linear.Inconclusive msg ->
      Verdict.unknown ~procedure:"critical-weak-acyclicity" ~evidence:msg)
  | Restricted ->
    invalid_arg "Linear.check: Theorem 2 covers the (semi-)oblivious chase only"
