(* The repository benchmark: one seeded workload per invocation, timed
   end to end (--trace 0) or layer by layer (--trace 1), every output
   checked.  Started through perfbench/run.py, which builds this
   executable and the shipped binaries first; see perfbench/README.md.

   The last line of standard output is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}. *)

open Util

let workloads = [ "chase-tc"; "chase-exchange"; "decide-corpus"; "service-mix" ]

let usage =
  "perfbench --workload NAME --seed N --seconds S --trace 0|1 --bin-dir DIR --run-root DIR \
   [--smoke] [--source-id ID]"

(* Merge the run's shards with [chasec trace-merge] and validate the
   tree with [obs_check --tracectx]. *)
let validate_trace ~bin_dir ~run_dir shards =
  let shards = List.filter Sys.file_exists shards in
  let merged = Filename.concat run_dir "merged.json" in
  let log = Filename.concat run_dir "trace-check.log" in
  let merge =
    run_tool ~out:merged ~err:log (Filename.concat bin_dir "chasec.exe") ("trace-merge" :: shards)
  in
  let check =
    if merge <> 0 then merge
    else run_tool ~out:log ~err:log (Filename.concat bin_dir "obs_check.exe") [ "--tracectx"; merged ]
  in
  if check <> 0 then run_wrong "trace shards rejected:\n%s" (read_file log)
  else print_string ("# " ^ read_file log)

(* The traced run's ledger: every per-layer metric of BENCHMARK.json,
   in the [seconds] left.  The in-process layers (Parser, Instance,
   Hom/Plan, Engine, Relevance, the rename probe, Critical,
   Classify/Flow, Decide) run on the workload's own programs; the daemon
   layers on the service deck (see [Service_wl.daemon_layers]), since
   only the service workload drives the daemons.  decide-corpus has
   already run its rule-layer ledger over its corpus.  Returns the
   daemons' trace shards. *)
let ledger ~workload ~seconds ~seed ~smoke ~bin_dir ~run_dir programs =
  let service = workload = "service-mix" in
  let seconds = Float.max 1. seconds in
  let shards =
    Service_wl.daemon_layers ~seed ~smoke ~bin_dir ~run_dir ~overhead:service
      ~seconds:(seconds *. if service then 0.5 else 0.25)
  in
  if workload <> "decide-corpus" then begin
    let rules =
      match Chase.Parser.parse_program (List.hd programs).Layers.text with
      | Ok (rules, _) -> rules
      | Error e -> failwith ("program does not parse: " ^ e)
    in
    Decide_wl.rule_layers ~reps:15 [ (workload, rules) ]
  end;
  (* the probe chases one bulk-chase program, or a small workload's every
     program, so that its two times are long enough to compare *)
  let probe =
    if String.starts_with ~prefix:"chase-" workload then [ List.hd programs ] else programs
  in
  Layers.rename_probe ~seconds:(seconds *. 0.1) probe;
  Layers.run ~with_overhead:(not service) ~seconds:(seconds *. if service then 0.3 else 0.5) programs;
  shards

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--calibrate" then begin
    calibration_work ();
    exit 0
  end;
  let workload = ref "" and seed = ref 0 and seconds = ref nan and trace = ref 0 in
  let bin_dir = ref "" and run_root = ref "" and smoke = ref false in
  let source_id = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--bin-dir", Arg.Set_string bin_dir, " directory of the built binaries");
      ("--run-root", Arg.Set_string run_root, " where run directories are made");
      ("--smoke", Arg.Set smoke, " tiny inputs, for the benchmark's own test");
      ("--source-id", Arg.Set_string source_id, " identity of the measured sources");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  end;
  if Float.is_nan !seconds || !bin_dir = "" || !run_root = "" then begin
    prerr_endline ("perfbench: --seconds, --bin-dir and --run-root are required\n" ^ usage);
    exit 2
  end;
  let traced = !trace = 1 in
  (* inputs, daemons, spools and shards live here; short relative paths
     keep socket names within the kernel's limit wherever the checkout
     is *)
  let run_dir = Printf.sprintf "%s/%s-%d" !run_root !workload (Unix.getpid ()) in
  mkdir_p run_dir;
  (* every exit path stops the daemons and removes the run directory:
     normal exit, failure, signal *)
  let main_pid = Unix.getpid () in
  at_exit (fun () ->
      if Unix.getpid () = main_pid then begin
        stop_launcher ();
        kill_children ();
        rm_rf run_dir;
        try Unix.rmdir !run_root with Unix.Unix_error _ -> ()
      end);
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Printf.printf
    "# run: {\"nproc\": %d, \"ocaml\": %S, \"source\": %S, \"workload\": %S, \"seed\": %d, \
     \"seconds\": %g, \"trace\": %d, \"smoke\": %b}\n\
     %!"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !source_id !workload !seed !seconds !trace !smoke;
  let bench_shard = Filename.concat run_dir "bench.trace" in
  if traced then shard := Some (Chase.Tracectx.Shard.open_ ~proc:"perfbench" bench_shard);
  let seconds = !seconds and seed = !seed and smoke = !smoke and bin_dir = !bin_dir in
  let t_start = now () in
  let programs =
    match !workload with
    | "chase-tc" ->
      let n = if smoke then 30 else 200 in
      Chase_wl.run ~seconds ~trace:traced ~dir:run_dir ~bin_dir
        ~make_input:(fun k -> Gen.tc_program (Random.State.make [| seed; 1; k |]) ~n)
        ~variant:Chase.Variant.Semi_oblivious
    | "chase-exchange" ->
      let scale = if smoke then 1 else 5 in
      Chase_wl.run ~seconds ~trace:traced ~dir:run_dir ~bin_dir
        ~make_input:(fun k ->
          Gen.exchange_program
            (Random.State.make [| seed; 2; k |])
            ~employees:(250 * scale) ~per_employee:2 ~projects:(50 * scale) ~depts:(2 * scale)
            ~cities:(1 + scale) ~sales:(300 * scale))
        ~variant:Chase.Variant.Oblivious
    | "decide-corpus" -> Decide_wl.run ~seconds ~trace:traced ~seed ~smoke
    | _ -> Service_wl.run ~seconds ~trace:traced ~seed ~bin_dir ~run_dir ~smoke
  in
  let daemon_shards =
    if traced then
      ledger ~workload:!workload ~seconds:(seconds -. (now () -. t_start)) ~seed ~smoke ~bin_dir
        ~run_dir programs
    else []
  in
  Option.iter Chase.Tracectx.Shard.close !shard;
  if traced then validate_trace ~bin_dir ~run_dir (bench_shard :: daemon_shards);
  print_result ()
