(* The two bulk-chase workloads: one operation is one run of the shipped
   chase binary, in its own process, on a generated program file.

   chase-tc: a recursive two-atom join over a tiny input; matching
   (Hom/Plan), Relevance and the engine's per-trigger path do almost all
   the work, parse and load almost none.

   chase-exchange: the opposite balance; a data-exchange mapping over a
   large source database, where parse, Instance load, dedup of wide keys,
   head application and provenance dominate and matching is shallow. *)

open Util

type case = { file : string; input : Gen.chase_input; variant : Chase.Variant.t }

let budget c = c.input.triggers + 1000

(* The CLI's arguments for one chase: limits above the predicted run, so
   that only a wrong run can breach them. *)
let cli_args c =
  [
    c.file; "-q"; "-v"; Chase.Variant.to_string c.variant; "-b"; string_of_int (budget c);
    "--max-atoms"; string_of_int (c.input.facts + 1000);
  ]

(* The CLI's summary must be a terminated chase with the predicted fact
   and trigger counts. *)
let check what c ~code ~out ~err =
  attempt ();
  let stdout = read_file out in
  let lines = String.split_on_char '\n' stdout in
  let has prefix = List.exists (String.starts_with ~prefix) lines in
  if code <> 0 then op_failed "%s: exit %d: %s" what code (read_file err)
  else if
    not
      (has (Chase.Variant.to_string c.variant ^ " chase: terminated")
      && has (Printf.sprintf "facts: %d " c.input.facts)
      && has (Printf.sprintf "triggers: %d applied" c.input.triggers))
  then
    op_wrong "%s: expected a terminated chase of %d facts and %d triggers, got %S" what
      c.input.facts c.input.triggers stdout

(* One operation: the CLI chase of [c], timed from spawn to reap. *)
let chase ~cli ~dir what c =
  let out = Filename.concat dir "chase.out" and err = Filename.concat dir "chase.err" in
  let code, secs, rss_kb = launch ~out ~err cli (cli_args c) in
  check what c ~code ~out ~err;
  (secs, rss_kb)

(* Each run chases [inputs] different seeded programs in turn, so a
   metric reflects the program shape rather than one input's layout.
   Programs of one shape differ in cost by up to a third (their
   permutations), and op_ms_p90 falls on the slowest few: over 6
   programs it was the slowest one's time, and it moved by 18% from seed
   to seed. *)
let inputs = 24
(* One set-up is timed before the first operation and one more after
   every [setup_every] operations, so that setup_s is the median of set-ups
   spread over the whole run rather than of its first seconds. *)
let setup_every = 8

let make_cases ~dir ~make_input ~variant =
  List.init inputs (fun k ->
      let input = make_input k in
      let file = Filename.concat dir (Printf.sprintf "input%d.chase" k) in
      write_file file input.Gen.text;
      { file; input; variant })

(* The run's operations (--trace 0), or the programs they carry, for the
   traced run's layer ledger (--trace 1). *)
let run ~seconds ~trace ~dir ~bin_dir ~make_input ~variant =
  start_launcher ();
  let cli = Filename.concat bin_dir "chase_cli.exe" in
  (* set-up: generate and write the inputs, then chase the first once,
     untimed, which pages in the binary *)
  let setup () =
    calibrate ();
    fst
      (time (fun () ->
           let cases = make_cases ~dir ~make_input ~variant in
           ignore (chase ~cli ~dir "warm-up chase" (List.hd cases))))
  in
  let setup_times = ref [ setup () ] in
  let cases = Array.of_list (make_cases ~dir ~make_input ~variant) in
  Printf.printf "# inputs: %d programs of about %d bytes, %d facts and %d triggers each\n%!"
    inputs (String.length cases.(0).input.text) cases.(0).input.facts cases.(0).input.triggers;
  if not trace then begin
    let ops =
      repeat ~seconds ~min_reps:inputs (fun k ->
          if k mod setup_every = setup_every - 1 then setup_times := setup () :: !setup_times;
          calibrate ();
          chase ~cli ~dir "chase" cases.(k mod inputs))
    in
    let samples = List.length ops in
    let ms = List.map (fun (s, _) -> 1e3 *. s) ops in
    timing "setup_s" "s" ~samples:(List.length !setup_times) (median !setup_times)
      ~note:"median of the set-ups";
    timing "op_ms_p50" "ms" ~samples (median ms);
    report "peak_rss_mb" "MB" ~note:(Printf.sprintf "median of %d chase processes" samples)
      (median (List.map (fun (_, kb) -> float_of_int kb /. 1024.) ops));
    timing "op_ms_p90" "ms" ~listed:false ~samples (quantile 0.9 ms)
  end;
  Array.to_list
    (Array.map
       (fun c ->
         {
           Layers.text = c.input.text;
           db = Layers.Parsed;
           variant = c.variant;
           budget = budget c;
           expect = Some (c.input.facts, c.input.triggers);
         })
       cases)
