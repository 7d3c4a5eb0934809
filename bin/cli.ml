(** The command-line spelling shared by the binaries: the chase-variant
    converter and the run-configuration flags.  {!engine} lays
    [--naive], [--no-prune] and [--domains N] over
    {!Chase.Engine.default_config}, which carries the environment
    spelling ([CHASE_NAIVE], [CHASE_NO_PRUNE], [CHASE_DOMAINS]); a flag
    only moves away from that default. *)

open Cmdliner
open Chase

let variant_conv =
  let parse s =
    match Variant.of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Fmt.str "unknown chase variant %S" s))
  in
  Arg.conv (parse, Variant.pp)

let naive =
  Arg.(value & flag
       & info [ "naive" ]
           ~doc:"Use the naive left-to-right body matcher (the reference \
                 semantics) instead of the join-planned one, in every \
                 chase the command runs.  Equivalent to setting \
                 CHASE_NAIVE=1.")

let no_prune =
  Arg.(value & flag
       & info [ "no-prune" ]
           ~doc:"Disable the static trigger-relevance index: sweep every \
                 rule on every added fact.  Bit-identical to the pruned \
                 run (the index only skips provably empty matches).  \
                 Equivalent to setting CHASE_NO_PRUNE=1.")

let domains =
  let parse s = Result.map_error (fun m -> `Msg m) (Parallel.parse_domains s) in
  Arg.(value & opt (some (conv (parse, Fmt.int))) None
       & info [ "domains" ] ~docv:"N"
           ~doc:"Fan trigger discovery across $(docv) domains (OCaml \
                 multicore).  Chase sequences, printed output, journals \
                 and verdicts are bit-identical to a single-domain run; \
                 only wall-clock changes.  Equivalent to setting \
                 CHASE_DOMAINS=$(docv); default 1.")

let engine ?(with_naive = true) ?(with_no_prune = true) ?(with_domains = true)
    () =
  let pick on arg default = if on then arg else Cmdliner.Term.const default in
  let make naive no_prune domains =
    let d = Engine.default_config in
    {
      d with
      Engine.matcher = (if naive then Hom.Naive else d.Engine.matcher);
      prune = d.Engine.prune && not no_prune;
      domains = Option.value domains ~default:d.Engine.domains;
    }
  in
  Cmdliner.Term.(
    const make
    $ pick with_naive naive false
    $ pick with_no_prune no_prune false
    $ pick with_domains domains None)
