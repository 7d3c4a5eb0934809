(* Clocks, order statistics, the run record, spans and child processes
   shared by the workloads. *)

open Chase

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (now () -. t0, v)

(* Linear-interpolated quantile; nan on no samples, which [print_result]
   reports as a missing metric. *)
let quantile q samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  match Array.length a with
  | 0 -> nan
  | n ->
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.

(* Repeat [f] until [seconds] have passed and at least [min_reps] runs
   are in; the results come back in run order. *)
let repeat ~seconds ~min_reps f =
  let t_end = now () +. seconds in
  let rec go acc k =
    if k >= min_reps && now () >= t_end then List.rev acc else go (f k :: acc) (k + 1)
  in
  go [] 0

let word_bytes = Sys.word_size / 8

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* ------------------------------------------------------------------ *)
(* The run record: what the last output line reports                  *)
(* ------------------------------------------------------------------ *)

(* [scaled] metrics are end-to-end times, reported at the reference host
   speed (see [calibration_work]).  [listed] metrics are the ones
   BENCHMARK.json names and the result line carries; the others are a
   workload's own figures, printed in the table only. *)
type metric = {
  name : string;
  value : float;
  unit_ : string;
  note : string;
  scaled : bool;
  listed : bool;
}

let attempted = ref 0
let failed = ref 0
let correct = ref true
let metrics : metric list ref = ref []

let report ?(note = "") ?(scaled = false) ?(listed = true) name unit_ value =
  metrics := { name; value; unit_; note; scaled; listed } :: !metrics

let count ?note name n = report ?note name "count" (float_of_int n)

(* An end-to-end time, with its sample count in the note; [scaled] unless
   told otherwise. *)
let timing ?(note = "") ?listed ?(scaled = true) name unit_ ~samples value =
  report ?listed name unit_ value ~scaled
    ~note:(Printf.sprintf "%d samples%s" samples (if note = "" then "" else "; " ^ note))

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* The host's speed drifts by a third and more over minutes (other
   machines share its cores), and every operation slows with it.  A
   calibration, interleaved with the operations about every
   [calibrate_every] seconds, does a fixed amount of work timed the way
   the workload times its operations.  [Process] is a fresh process (this
   executable, run with --calibrate) doing work shaped like a chase
   (hashing boxed keys into a growing table and building a map), timed
   from spawn to reap as the CLI chases are; [Echo] is a round trip to a
   forked child (see [echo_round_trips]), for the service.  Its code is
   the benchmark's, not the program's, so a change to the program leaves
   it alone.  Scaled times are reported at the reference speed:
   multiplied by the reference time over the run's median calibration
   time.  A run uses one kind.  Verdict times are not scaled: no
   calibration tried tracked them better than their own statistics do
   (see perfbench/README.md). *)
let calibration_work ?(n = 20_000) () =
  let module M = Map.Make (String) in
  let h = Hashtbl.create 16 in
  let acc = ref [] in
  for i = 0 to n do
    let k = (i * 7919 mod 10_007, "v" ^ string_of_int (i mod 2000)) in
    if not (Hashtbl.mem h k) then Hashtbl.add h k [ i; i + 1 ];
    if i mod 3 = 0 then acc := k :: !acc
  done;
  let m = List.fold_left (fun m (a, b) -> M.add b a m) M.empty !acc in
  ignore (Sys.opaque_identity (Hashtbl.length h + M.cardinal m))

(* The calibration's time at the reference speed. *)
type calibration = Process | Echo

let calibration_name = function Process -> "process" | Echo -> "echo"
let reference_ms = function Process -> 20. | Echo -> 10.
let calibrated_by = ref Process
let calibrate_every = 0.5
let calibrations = ref []
let last_calibration = ref neg_infinity

let attempt () = incr attempted

(* An operation that did not deliver: refused, errored or timed out. *)
let op_failed fmt =
  Printf.ksprintf
    (fun s ->
      incr failed;
      prerr_endline ("perfbench: failed operation: " ^ s))
    fmt

(* An operation whose output the benchmark's own check rejects. *)
let op_wrong fmt =
  Printf.ksprintf
    (fun s ->
      incr failed;
      correct := false;
      prerr_endline ("perfbench: wrong output: " ^ s))
    fmt

(* A check of the run itself (not of one operation) that did not hold. *)
let run_wrong fmt =
  Printf.ksprintf
    (fun s ->
      correct := false;
      prerr_endline ("perfbench: check failed: " ^ s))
    fmt

let json_number m =
  if m.unit_ = "count" then Printf.sprintf "%d" (int_of_float m.value)
  else if Float.is_integer m.value then Printf.sprintf "%.1f" m.value
  else Printf.sprintf "%.17g" m.value

(* The human-readable table, then the result line. *)
let print_result () =
  let scale =
    match !calibrations with
    | [] -> 1.
    | l ->
      let c = 1e3 *. median l and r = reference_ms !calibrated_by in
      Printf.printf "# host: %s calibration median %.4f ms over %d runs; times scaled by %.4f\n"
        (calibration_name !calibrated_by) c
        (List.length l) (r /. c);
      r /. c
  in
  let ms =
    List.filter_map
      (fun m ->
        if not (Float.is_finite m.value) then begin
          run_wrong "%s: no samples" m.name;
          None
        end
        else if m.scaled && !calibrations <> [] then
          Some { m with value = m.value *. scale; note = Printf.sprintf "%s; %.6g as measured" m.note m.value }
        else Some m)
      (List.rev !metrics)
  in
  List.iter
    (fun m ->
      Printf.printf "%-28s %18s %-6s %s%s\n" m.name (json_number m) m.unit_ m.note
        (if m.listed then "" else " (table only)"))
    ms;
  let att = max 1 !attempted in
  Printf.printf "%-28s %18.6f %-6s %d of %d operations\n" "failed_frac"
    (float_of_int !failed /. float_of_int att)
    "ratio" !failed att;
  let body =
    String.concat ", "
      (List.map
         (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m) m.unit_)
         (List.filter (fun m -> m.listed) ms))
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    !correct att !failed body

(* ------------------------------------------------------------------ *)
(* Spans: Tracectx shard records written by the benchmark's own code   *)
(* ------------------------------------------------------------------ *)

let shard : Tracectx.Shard.writer option ref = ref None

(* [root_span name f] runs [f root] under a fresh trace; [span root name
   f] records one child span of it.  Both are plain calls when the run
   is untraced. *)
let root_span ?(args = []) name f =
  match !shard with
  | None -> f (Tracectx.genesis ())
  | Some w ->
    let ctx = Tracectx.genesis () in
    let t0 = Tracectx.now_us () in
    let v = f ctx in
    Tracectx.Shard.span w ~ctx ~name ~ts_us:t0 ~dur_us:(Tracectx.now_us () -. t0) ~args ();
    v

let span root name f =
  match !shard with
  | None -> f ()
  | Some w ->
    let ctx = Tracectx.child root in
    let t0 = Tracectx.now_us () in
    let v = f () in
    Tracectx.Shard.span w ~ctx ~parent:root.Tracectx.span ~name ~ts_us:t0
      ~dur_us:(Tracectx.now_us () -. t0) ();
    v

(* ------------------------------------------------------------------ *)
(* Child processes and run directories                                 *)
(* ------------------------------------------------------------------ *)

let children : int list ref = ref []

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

let forget pid = children := List.filter (( <> ) pid) !children

(* Wait up to [timeout] seconds for [pid] to exit, then SIGKILL it; the
   child is reaped either way. *)
let reap ?(timeout = 5.) pid =
  let deadline = now () +. timeout in
  let rec go () =
    match waitpid_retry [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if now () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid_retry [] pid)
      end
      else begin
        Unix.sleepf 0.005;
        go ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  forget pid

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (waitpid_retry [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

(* Start [exe] with stdout to [out] and stderr to [err]; the pid is
   remembered until reaped. *)
let spawn ~out ~err exe args =
  let openw path =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let o = openw out in
  let e = if err = out then o else openw err in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close o;
        if e != o then Unix.close e;
        Unix.close null)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) null o e)
  in
  children := pid :: !children;
  pid

let exited pid =
  match waitpid_retry [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ ->
    forget pid;
    true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

external wait4 : int -> int * int = "perfbench_wait4"

(* Run [exe] to completion; its exit code (minus the signal that killed
   it), its wall time in seconds from spawn to reap, and its peak
   resident set in KiB, from the rusage of its exit. *)
let run_process ~out ~err exe args =
  let t0 = now () in
  let pid = spawn ~out ~err exe args in
  let code, maxrss_kb = wait4 pid in
  let secs = now () -. t0 in
  forget pid;
  (code, secs, maxrss_kb)

let run_tool ~out ~err exe args =
  let code, _, _ = run_process ~out ~err exe args in
  code

(* The launcher: a child forked while the harness is still small, which
   runs chase processes on request ([run_process] in it) and answers
   with their exit code, wall time and peak resident set.  A process's
   ru_maxrss counts the resident set of the process that spawned it as
   it was before the exec, so a chase spawned by the harness once it
   holds two dozen generated programs would report the harness's peak,
   not its own. *)
let launcher : (int * out_channel * in_channel) option ref = ref None

let start_launcher () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close resp_r;
    let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr resp_w in
    (try
       while true do
         let out, err, exe, args = (Marshal.from_channel ic : string * string * string * string list) in
         Marshal.to_channel oc (run_process ~out ~err exe args : int * float * int) [];
         flush oc
       done
     with End_of_file | Sys_error _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close req_r;
    Unix.close resp_w;
    launcher := Some (pid, Unix.out_channel_of_descr req_w, Unix.in_channel_of_descr resp_r)

(* [run_process] through the launcher, once started. *)
let launch ~out ~err exe args =
  match !launcher with
  | None -> run_process ~out ~err exe args
  | Some (_, oc, ic) ->
    Marshal.to_channel oc (out, err, exe, args) [];
    flush oc;
    (Marshal.from_channel ic : int * float * int)

(* The launcher exits when its request pipe closes, after the chase it
   may be running; it is waited for. *)
let stop_launcher () =
  match !launcher with
  | None -> ()
  | Some (pid, oc, ic) ->
    launcher := None;
    close_out_noerr oc;
    close_in_noerr ic;
    ignore (waitpid_retry [] pid)

(* Repeat [f] until [short] seconds are spent or [reps] runs are in, and
   keep the fastest time, since a preemption or a busy neighbour only
   ever adds time.  Returns the time and the first run's result. *)
let fastest ?(short = 0.02) ?(reps = 25) f =
  let dt, v = time f in
  let rec go best k spent =
    if k >= reps || spent >= short then best
    else
      let dt, _ = time f in
      go (Float.min best dt) (k + 1) (spent +. dt)
  in
  (go dt 1 dt, v)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* [in_child_rss f] runs [f] in a forked copy of this process and returns
   its result with the child's peak resident set in KiB: [f] starts from
   this process's heap as it is, as a fresh process would, instead of the
   garbage and the grown heap of whatever ran before it. *)
let in_child_rss (f : unit -> 'a) : 'a * int =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let oc = Unix.out_channel_of_descr w in
    let v = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    Marshal.to_channel oc (v : ('a, string) result) [];
    close_out oc;
    Unix._exit 0
  | pid ->
    children := pid :: !children;
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let got = try Some (Marshal.from_channel ic : ('a, string) result) with End_of_file -> None in
    close_in ic;
    let _, maxrss_kb = wait4 pid in
    forget pid;
    (match got with
    | None -> failwith "operation process died"
    | Some (Ok v) -> (v, maxrss_kb)
    | Some (Error e) -> failwith e)

let in_child f = fst (in_child_rss f)

(* The peak resident set of a live process, in KiB (VmHWM). *)
let peak_rss_kb pid =
  let line =
    List.find_opt (String.starts_with ~prefix:"VmHWM:")
      (String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid)))
  in
  match line with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" Fun.id
  | None -> failwith (Printf.sprintf "no VmHWM for process %d" pid)

(* The echo calibration, for the service: [echo_trips] round trips of a
   1 KiB message to a long-lived forked child over a socket pair, the
   child doing a small fixed piece of work before each reply: wake-ups,
   socket copies and short bursts of work, as a daemon answering one
   client does.  The child lives until the run ends ([kill_children]). *)
let echo_trips = 20
let echo_msg = 1024
let echo = ref None

let rec really_io f fd buf off len =
  if len > 0 then
    match f fd buf off len with
    | 0 -> raise End_of_file
    | k -> really_io f fd buf (off + k) (len - k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> really_io f fd buf off len

let echo_round_trips () =
  let fd =
    match !echo with
    | Some fd -> fd
    | None ->
      let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      flush_all ();
      (match Unix.fork () with
      | 0 ->
        Unix.close a;
        let buf = Bytes.create echo_msg in
        (try
           while true do
             really_io Unix.read b buf 0 echo_msg;
             calibration_work ~n:1000 ();
             really_io Unix.write b buf 0 echo_msg
           done
         with _ -> ());
        Unix._exit 0
      | pid ->
        children := pid :: !children;
        Unix.close b;
        echo := Some a;
        a)
  in
  let buf = Bytes.make echo_msg 'x' in
  fst
    (time (fun () ->
         for _ = 1 to echo_trips do
           really_io Unix.write fd buf 0 echo_msg;
           really_io Unix.read fd buf 0 echo_msg
         done))

(* One calibration of the run's kind [how], timed, when
   [calibrate_every] seconds have passed since the last. *)
let calibrate ?(how = Process) () =
  if now () -. !last_calibration >= calibrate_every then begin
    calibrated_by := how;
    (match how with
    | Process ->
      let code, secs, _ =
        run_process ~out:"/dev/null" ~err:"/dev/null" Sys.executable_name [ "--calibrate" ]
      in
      if code <> 0 then run_wrong "calibration process exited %d" code
      else calibrations := secs :: !calibrations
    | Echo -> calibrations := echo_round_trips () :: !calibrations);
    last_calibration := now ()
  end
