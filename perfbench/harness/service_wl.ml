(* service-mix: a closed loop against a replicated daemon pair.

   One client connection sends its next request only after the previous
   reply.  The primary chased keeps a durable spool and a result cache
   larger than everything a run asks, and ships to a standby chased
   asynchronously (--sync-timeout 0).  The seeded deck holds exact
   proportions of three kinds: cache-hit chases, fresh chases with
   salted names and durable chases, so framing, admission, the cache,
   the spool's fsyncs and shipping carry the cost while engine work per
   request stays small.  Durable writes sit beside cached reads: their
   spool and shipping work competes with the timed requests.

   Both daemons live in the run directory and are stopped and reaped on
   every exit path ([Util.kill_children] runs at exit). *)

open Chase
open Util

(* Chain lengths of the chase programs: cached chases are 60-edge chains
   answered with the whole instance (1,950 facts, about 40 KB), fresh
   chases 30 edges and durable chases 20, both answered with the
   summary. *)
let hit_edges = 60
let miss_edges = 30
let durable_edges = 20
let hit_pool = 16

(* Retained results in the primary's cache (FIFO eviction): far above the
   distinct requests of a run, so the hit pool, answered once at set-up,
   is never evicted and every hit must be served from the cache. *)
let cache_capacity = 65536

type kind = Hit | Miss | Durable

let kind_name = function Hit -> "hit" | Miss -> "miss" | Durable -> "durable"

(* Each deck of 20 requests holds 4 cache hits, 12 fresh chases and 4
   durable chases, dealt in a seeded order; exact proportions keep the
   load the same for every seed.  Hits are the fastest kind and durable
   chases the slowest, so the median request lands in the middle of the
   fresh chases and the 90th percentile in the middle of the durable
   ones, not on a boundary between two kinds, where a few slow hits or
   fast durables would move it.  The proportions are assumptions: the
   repository holds no recorded traffic to derive them from (see
   perfbench/README.md). *)
let deck = Array.concat [ Array.make 4 Hit; Array.make 12 Miss; Array.make 4 Durable ]

let chase_request ?(durable = false) ~quiet ~id text =
  Proto.request ~id ~file:"bench.chase" ~program:text ~variant:"semi-oblivious" ~quiet ~durable
    Proto.Chase

(* ------------------------------------------------------------------ *)
(* The daemon pair                                                     *)
(* ------------------------------------------------------------------ *)

type pair = { dir : string; primary : int; standby : int; psock : string; ssock : string }

let call_once socket req =
  match Client.connect ~socket () with
  | Error e -> Error e
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.call c req)

let answered socket op =
  match call_once socket (Proto.request op) with
  | Ok (Proto.Ok_response r) -> Some r.Proto.stdout
  | _ -> None

let await ~pid ~log socket =
  let deadline = now () +. 20. in
  let rec go () =
    if Sys.file_exists socket && answered socket Proto.Ping <> None then ()
    else if exited pid then failwith ("daemon exited during boot:\n" ^ read_file log)
    else if now () > deadline then failwith ("daemon did not answer ping:\n" ^ read_file log)
    else begin
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

let boot ~chased ~traced dir =
  mkdir_p dir;
  let p name = Filename.concat dir name in
  let shard name = if traced then [ "--trace-shard"; p name ] else [] in
  let ssock = p "b.sock" and psock = p "a.sock" in
  (* the standby first: it owns the ship socket *)
  let slog = p "standby.log" in
  let standby =
    spawn ~out:slog ~err:slog chased
      ([ ssock; "--spool"; p "spool-b"; "--standby-of"; p "ship.sock" ] @ shard "standby.trace")
  in
  await ~pid:standby ~log:slog ssock;
  let plog = p "primary.log" in
  let primary =
    spawn ~out:plog ~err:plog chased
      ([
         psock; "--spool"; p "spool-a"; "--ship-to"; p "ship.sock"; "--workers"; "1";
         "--sync-timeout"; "0"; "--cache"; string_of_int cache_capacity;
       ]
      @ shard "primary.trace")
  in
  await ~pid:primary ~log:plog psock;
  { dir; primary; standby; psock; ssock }

(* Graceful stop: the primary drains on a shutdown request, the standby
   on SIGTERM; either is SIGKILLed if it does not exit in time. *)
let stop pair =
  ignore (call_once pair.psock (Proto.request Proto.Shutdown));
  reap ~timeout:10. pair.primary;
  (try Unix.kill pair.standby Sys.sigterm with Unix.Unix_error _ -> ());
  reap ~timeout:10. pair.standby

(* The daemon's telemetry: counters summed over labels, histogram p99s. *)
type telemetry = { counter : string -> int; hist_p99 : string -> float option }

let telemetry socket =
  match Option.map Jsonv.of_string (answered socket Proto.Telemetry) with
  | Some (Ok v) ->
    let items k = match Jsonv.member k v with Some (Jsonv.List l) -> l | _ -> [] in
    let named n o = Jsonv.member "name" o = Some (Jsonv.String n) in
    let num k o = Option.bind (Jsonv.member k o) Jsonv.to_float_opt in
    {
      counter =
        (fun n ->
          List.fold_left
            (fun a o -> if named n o then a + int_of_float (Option.value ~default:0. (num "value" o)) else a)
            0 (items "counters"));
      hist_p99 = (fun n -> List.find_map (fun o -> if named n o then num "p99" o else None) (items "histograms"));
    }
  | _ -> failwith ("no telemetry from " ^ socket)

(* ------------------------------------------------------------------ *)
(* Requests and their checks                                           *)
(* ------------------------------------------------------------------ *)

(* What the single-shot CLI prints for the same program: the service's
   answer must be byte-identical (the daemon's trigger budget is its
   default, 100k, and it caps atoms at 4 times that). *)
type expected = { code : int; stdout : string; stderr : string }

let cli_output ~cli ~dir ~quiet text =
  let file = Filename.concat dir "parity.chase" in
  let out = Filename.concat dir "parity.out" and err = Filename.concat dir "parity.err" in
  write_file file text;
  let code =
    run_tool ~out ~err cli
      ([ file; "-v"; "semi-oblivious"; "-b"; "100000"; "--max-atoms"; "400000" ]
      @ if quiet then [ "-q" ] else [])
  in
  { code; stdout = read_file out; stderr = read_file err }

let same_answer (r : Proto.result) want =
  (r.Proto.exit_code, r.Proto.stdout, r.Proto.stderr) = (want.code, want.stdout, want.stderr)

type sample = { kind : kind; ms : float; traced : bool }

type client = {
  st : Random.State.t;
  mutable conn : Client.t option;
  mutable seq : int;
  deck : kind array;
  mutable samples : sample list;
  mutable durable_acks : string list;  (** idempotency keys *)
  mutable quiet_waits : float list;  (** seconds at the quiet barrier *)
  mutable codec_msgs : (Proto.request * Proto.response) list;  (** a sample, for the codec probe *)
}

let new_client st =
  { st; conn = None; seq = 0; deck = Array.copy deck; samples = []; durable_acks = []; quiet_waits = []; codec_msgs = [] }

let call c ~socket req =
  let conn =
    match c.conn with
    | Some k -> Ok k
    | None ->
      Result.map
        (fun k ->
          c.conn <- Some k;
          k)
        (Client.connect ~socket ())
  in
  match conn with
  | Error e -> Error e
  | Ok k -> (
    match Client.call k req with
    | Ok _ as ok -> ok
    | Error e ->
      Client.close k;
      c.conn <- None;
      Error e)

(* Fresh programs are unique by their salted node names; a quiet
   answer does not name nodes, so one CLI answer serves every salt.  The
   request comes with the answer the CLI gives. *)
let next_request c ~hits ~miss ~durable =
  c.seq <- c.seq + 1;
  let id = Printf.sprintf "r%d" c.seq in
  let k = (c.seq - 1) mod Array.length deck in
  if k = 0 then Gen.shuffle c.st c.deck;
  let salt = Printf.sprintf "q%d_" c.seq in
  match c.deck.(k) with
  | Hit ->
    let text, want = hits.(Random.State.int c.st (Array.length hits)) in
    (Hit, chase_request ~quiet:false ~id text, want)
  | Miss ->
    (Miss, chase_request ~quiet:true ~id (Gen.tc_program ~salt c.st ~n:miss_edges).Gen.text, miss)
  | Durable ->
    ( Durable,
      chase_request ~durable:true ~quiet:true ~id (Gen.tc_program ~salt c.st ~n:durable_edges).Gen.text,
      durable )

(* One closed-loop request: send, wait, time, check. *)
let step c ~socket ~hits ~miss ~durable ~traced ~barrier =
  let kind, req, want = next_request c ~hits ~miss ~durable in
  let root = if traced then Some (Tracectx.genesis ()) else None in
  let req = { req with Proto.trace = Option.map Tracectx.to_string root } in
  let t0_us = Tracectx.now_us () in
  let t0 = now () in
  let resp = call c ~socket req in
  let ms = 1e3 *. (now () -. t0) in
  (match (!shard, root) with
  | Some w, Some ctx ->
    Tracectx.Shard.span w ~ctx ~name:"client.request" ~ts_us:t0_us
      ~dur_us:(Tracectx.now_us () -. t0_us)
      ~args:[ ("op", Jsonv.String (kind_name kind)) ]
      ()
  | _ -> ());
  attempt ();
  match resp with
  | Error e ->
    op_failed "%s request %s: %s" (kind_name kind) req.Proto.id e;
    Thread.delay 0.01
  | Ok (Proto.Ok_response r as resp) ->
    let ok =
      if kind = Hit && not r.Proto.cached then begin
        op_wrong "cache hit %s: recomputed, not served from the cache" req.Proto.id;
        false
      end
      else if not (same_answer r want) then begin
        op_wrong "%s request %s: answer differs from the CLI's" (kind_name kind) req.Proto.id;
        false
      end
      else true
    in
    if ok then begin
      c.samples <- { kind; ms; traced } :: c.samples;
      if kind = Durable then barrier ();
      if kind = Durable then c.durable_acks <- Proto.request_key req :: c.durable_acks;
      if c.seq mod 7 = 0 then c.codec_msgs <- (req, resp) :: c.codec_msgs
    end
  | Ok other ->
    op_failed "%s request %s: %s" (kind_name kind) req.Proto.id (Fmt.str "%a" Proto.pp_response other)

(* Every acknowledged durable request must have reached the standby's
   spool; shipping is asynchronous, so wait for it to drain. *)
let check_standby pair keys =
  let spool = Spool.create ~dir:(Filename.concat pair.dir "spool-b") in
  let missing () = List.filter (fun key -> Spool.get_response spool ~key = None) keys in
  let deadline = now () +. 20. in
  let rec go () =
    match missing () with
    | [] -> ()
    | l when now () > deadline ->
      List.iter (fun key -> op_wrong "durable request %s: acknowledged but not on the standby" key) l
    | _ ->
      Unix.sleepf 0.02;
      go ()
  in
  go ()

(* CPU time of every thread of [pid] so far, in ns (schedstat). *)
let cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | tasks ->
    Array.fold_left
      (fun acc t ->
        match read_file (Printf.sprintf "%s/%s/schedstat" dir t) with
        | s -> acc + Scanf.sscanf s "%d" Fun.id
        | exception Sys_error _ -> acc)
      0 tasks
  | exception Sys_error _ -> 0

(* The quiet barrier: after a durable request's answer, and untimed, the
   client waits until both daemons are idle (less than 0.5 ms of CPU in
   a 10 ms window), up to a second.  A durable write sets off shipping,
   the standby's apply and its journal certification, which otherwise
   overlap the next requests and slow them by up to 100 ms, so that a
   run's tail quantiles depend on where its few slowed requests fall. *)
let quiet pair c =
  fun () ->
    let t0 = now () in
    let busy () = cpu_ns pair.primary + cpu_ns pair.standby in
    let rec go before =
      Unix.sleepf 0.01;
      let after = busy () in
      if after - before > 500_000 && now () -. t0 < 1. then go after
    in
    go (busy ());
    c.quiet_waits <- (now () -. t0) :: c.quiet_waits

(* ------------------------------------------------------------------ *)
(* In-process layer probes: journal, recovery, codec                   *)
(* ------------------------------------------------------------------ *)

(* The same chase with and without [Session.on_trigger], then
   [Recovery.recover] of the journal it wrote. *)
let journal_layer ~dir text =
  let rules, db = Result.get_ok (Parser.parse_program text) in
  let variant = Variant.Semi_oblivious in
  let config = Engine.config_of_budget ~variant 100_000 in
  let journal = Filename.concat dir "layer.wal" in
  let reps =
    List.init 9 (fun _ ->
        root_span "bench.journal" (fun root ->
            let plain, res = time (fun () -> span root "engine.run" (fun () -> Engine.run ~config rules db)) in
            let obs = Obs.create [] in
            let durable, _ =
              time (fun () ->
                  span root "session.run" (fun () ->
                      let s = Session.start ~journal ~obs ~variant ~rules ~db () in
                      let r = Engine.run ~config ~on_trigger:(Session.on_trigger s) rules db in
                      Session.finish s;
                      r))
            in
            let recover, rep =
              time (fun () ->
                  span root "recovery.recover" (fun () -> Recovery.recover ~journal ~variant ~rules ~db ()))
            in
            if Result.is_error rep then run_wrong "journal did not recover";
            ( plain,
              durable,
              recover,
              (Unix.stat journal).Unix.st_size,
              Metrics.counter_value (Obs.metrics obs) "journal.fsyncs",
              res.Engine.triggers_applied )))
  in
  let med f = median (List.map f reps) in
  let _, _, _, bytes, fsyncs, triggers = List.hd reps in
  report "journal.append_s" "s" (med (fun (_, d, _, _, _, _) -> d) -. med (fun (p, _, _, _, _, _) -> p))
    ~note:"durable run minus plain run, medians of 9";
  report "journal.bytes_per_trigger" "B" (float_of_int bytes /. float_of_int (max 1 triggers));
  count "journal.fsyncs" fsyncs;
  report "recovery.recover_s" "s" (med (fun (_, _, r, _, _, _) -> r))

(* Encode plus decode of the workload's own messages, per message. *)
let codec_layer msgs =
  let once () =
    fst
      (time (fun () ->
           List.iter
             (fun (req, resp) ->
               if Result.is_error (Proto.decode_request (Proto.encode_request req)) then
                 run_wrong "request codec round trip failed";
               if Result.is_error (Proto.decode_response (Proto.encode_response ~id:req.Proto.id resp))
               then run_wrong "response codec round trip failed")
             msgs))
  in
  let secs = median (List.init 5 (fun _ -> once ())) in
  report "proto.codec_us" "us" (1e6 *. secs /. float_of_int (max 1 (List.length msgs)))
    ~note:(Printf.sprintf "%d request/response pairs" (List.length msgs));
  report "proto.response_bytes_p50" "B"
    (median
       (List.map
          (fun (req, resp) -> float_of_int (String.length (Proto.encode_response ~id:req.Proto.id resp)))
          msgs))

(* Server-side figures from the daemons' own trace shards. *)
let shard_spans path name =
  if not (Sys.file_exists path) then []
  else
    List.filter_map
      (fun l ->
        match Tracectx.parse_shard_line l with
        | Some r when r.Tracectx.r_name = name -> Some r
        | _ -> None)
      (String.split_on_char '\n' (read_file path))

(* The most requests waiting in admission at once: the largest overlap
   of admission.queue spans. *)
let max_overlap spans =
  let events =
    List.concat_map
      (fun r -> [ (r.Tracectx.r_ts_us, 1); (r.Tracectx.r_ts_us +. r.Tracectx.r_dur_us, -1) ])
      spans
  in
  let events = List.sort compare events in
  snd (List.fold_left (fun (cur, best) (_, d) -> (cur + d, max best (cur + d))) (0, 0) events)

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

(* One set-up is timed before the loop and one more every [setup_every]
   seconds of it, so that setup_s is the median of set-ups spread over the
   whole run rather than of its first seconds. *)
let setup_every = 1.5

(* The hit pool's programs with the CLI's answers, and the CLI's answers
   for the fresh and durable shapes, outside any timed set-up. *)
let expected_answers ~cli ~run_dir st ~pool =
  let hit_texts =
    Array.init pool (fun i -> (Gen.tc_program ~salt:(Printf.sprintf "h%d_" i) st ~n:hit_edges).Gen.text)
  in
  let hits = Array.map (fun text -> (text, cli_output ~cli ~dir:run_dir ~quiet:false text)) hit_texts in
  let shape n = cli_output ~cli ~dir:run_dir ~quiet:true (Gen.tc_program st ~n).Gen.text in
  let miss = shape miss_edges in
  (hits, miss, shape durable_edges)

(* Boot a pair in [dir] and answer every hit-pool program once. *)
let boot_warm ~chased ~traced ~hits st dir =
  let pair = boot ~chased ~traced dir in
  let c = new_client st in
  Array.iteri
    (fun i (text, want) ->
      attempt ();
      match call c ~socket:pair.psock (chase_request ~quiet:false ~id:(Printf.sprintf "w%d" i) text) with
      | Ok (Proto.Ok_response r) when same_answer r want -> ()
      | _ -> op_wrong "warm-up chase %d: answer differs from the CLI's" i)
    hits;
  Option.iter Client.close c.conn;
  pair

let latencies ?traced ?kind c =
  List.filter_map
    (fun s ->
      if (kind = None || kind = Some s.kind) && (traced = None || traced = Some s.traced) then Some s.ms
      else None)
    c.samples

(* The closed loop until [t_end], the standby's check, and the pair's
   telemetry before and after. *)
let closed_loop ?(between = fun () -> ()) ~pair ~hits ~miss ~durable ~trace ~t_end c =
  let before = telemetry pair.psock in
  let barrier = quiet pair c in
  while now () < t_end do
    between ();
    if not trace then calibrate ~how:Echo ();
    (* in a traced run, traced and untraced requests alternate *)
    step c ~socket:pair.psock ~hits ~miss ~durable ~traced:(trace && c.seq mod 2 = 0) ~barrier
  done;
  let after = telemetry pair.psock in
  let standby_tele = telemetry pair.ssock in
  Option.iter Client.close c.conn;
  check_standby pair c.durable_acks;
  stop pair;
  (before, after, standby_tele)

(* The programs the service chases, for the traced run's engine ledger:
   some of the hit pool and fresh and durable shapes. *)
let programs st ~hits =
  let prog text =
    { Layers.text; db = Layers.Parsed; variant = Variant.Semi_oblivious; budget = 100_000; expect = None }
  in
  List.map (fun (t, _) -> prog t) (Array.to_list (Array.sub hits 0 (min 4 (Array.length hits))))
  @ List.init 4 (fun _ -> prog (Gen.tc_program st ~n:miss_edges).Gen.text)
  @ List.init 4 (fun _ -> prog (Gen.tc_program st ~n:durable_edges).Gen.text)

(* The end-to-end run (--trace 0); returns the service's programs for
   the traced run's engine ledger. *)
let run ~seconds ~trace ~seed ~bin_dir ~run_dir ~smoke =
  let chased = Filename.concat bin_dir "chased.exe" and cli = Filename.concat bin_dir "chase_cli.exe" in
  let st = Random.State.make [| seed; 4 |] in
  let hits, miss, durable = expected_answers ~cli ~run_dir st ~pool:(if smoke then 4 else hit_pool) in
  if not trace then begin
    (* set-up: boot a pair to its first answered ping and answer every
       hit-pool program once; the first pair serves the loop, the others
       are stopped at once.  peak_rss_mb is the primaries' peak after
       set-up: the loop primary's grows with the answers its cache keeps,
       so with the number of requests a run fits in, which is the host's
       speed. *)
    let setup k =
      calibrate ~how:Echo ();
      time (fun () -> boot_warm ~chased ~traced:false ~hits st (Printf.sprintf "%s/pair%d" run_dir k))
    in
    let setup_s, pair = setup 0 in
    let setup_times = ref [ setup_s ] and next_setup = ref (now () +. setup_every) in
    let warm_rss = ref [ peak_rss_kb pair.primary ] in
    let between () =
      if now () >= !next_setup then begin
        let secs, p = setup (List.length !setup_times) in
        warm_rss := peak_rss_kb p.primary :: !warm_rss;
        stop p;
        rm_rf p.dir;
        setup_times := secs :: !setup_times;
        next_setup := now () +. setup_every
      end
    in
    let c = new_client (Random.State.make [| seed; 40 |]) in
    let _, _, _ =
      closed_loop ~between ~pair ~hits ~miss ~durable ~trace:false ~t_end:(now () +. seconds) c
    in
    let all = latencies c in
    let samples = List.length all in
    timing "setup_s" "s" ~samples:(List.length !setup_times) (median !setup_times)
      ~note:"median of the set-ups";
    timing "op_ms_p50" "ms" ~samples (median all);

    report "peak_rss_mb" "MB"
      (median (List.map (fun kb -> float_of_int kb /. 1024.) !warm_rss))
      ~note:(Printf.sprintf "median of %d set-up primaries' VmHWM" (List.length !warm_rss));
    timing "op_ms_p90" "ms" ~listed:false ~samples (quantile 0.9 all);
    timing "op_ms_p99" "ms" ~listed:false ~samples (quantile 0.99 all);
    List.iter
      (fun (name, k) ->
        let l = latencies ~kind:k c in
        timing name "ms" ~listed:false ~samples:(List.length l) (median l))
      [ ("hit_ms_p50", Hit); ("miss_ms_p50", Miss); ("durable_ms_p50", Durable) ];
    report "quiet_wait_ms_p50" "ms" ~listed:false (1e3 *. median c.quiet_waits)
      ~note:"untimed wait for idle daemons after a durable request"
  end;
  programs st ~hits

(* The traced run's daemon ledger: Proto, Server/Admission/Cache/Spool,
   Shipper/Receiver and Session/Journal/Recovery, on the service deck for
   [seconds], against a pair that writes trace shards.  Every workload's
   traced run measures these layers here, since only the service
   workload drives the daemons.  [overhead] reports the tracing cost
   from the traced against the untraced requests.  Returns the daemons'
   shards. *)
let daemon_layers ~seconds ~seed ~bin_dir ~run_dir ~smoke ~overhead =
  let chased = Filename.concat bin_dir "chased.exe" and cli = Filename.concat bin_dir "chase_cli.exe" in
  let t_end = now () +. seconds in
  let st = Random.State.make [| seed; 4 |] in
  let hits, miss, durable = expected_answers ~cli ~run_dir st ~pool:(if smoke then 4 else hit_pool) in
  let pair = boot_warm ~chased ~traced:true ~hits st (Filename.concat run_dir "pair") in
  let c = new_client (Random.State.make [| seed; 40 |]) in
  (* the loop keeps a fifth of the time for the in-process probes *)
  let before, after, standby_tele =
    closed_loop ~pair ~hits ~miss ~durable ~trace:true ~t_end:(t_end -. (seconds /. 5.)) c
  in
  let delta n = after.counter n - before.counter n in
  let primary_shard = Filename.concat pair.dir "primary.trace" in
  let server_ms = List.map (fun r -> r.Tracectx.r_dur_us /. 1e3) (shard_spans primary_shard "server.chase") in
  let traced_ms = latencies ~traced:true c in
  let svc_p50 = median server_ms in
  report "svc.latency_ms_p50" "ms" svc_p50 ~note:(Printf.sprintf "%d samples" (List.length server_ms));
  report "svc.wire_ms_p50" "ms" (median traced_ms -. svc_p50)
    ~note:"client median minus server median, traced requests";
  report "svc.cache_hit_frac" "ratio" (float_of_int (delta "svc.cache_hit") /. float_of_int (max 1 c.seq));
  count "svc.sheds" (delta "svc.shed");
  count "svc.queue_depth_max" (max_overlap (shard_spans primary_shard "admission.queue"));
  let fsync_ms = List.map (fun r -> r.Tracectx.r_dur_us /. 1e3) (shard_spans primary_shard "spool.fsync") in
  report "spool.fsync_ms_p50" "ms" (median fsync_ms) ~note:(Printf.sprintf "%d samples" (List.length fsync_ms));
  count "repl.shipped" (standby_tele.counter "repl.applied");
  report "repl.lag_p99" "frames" (Option.value ~default:0. (standby_tele.hist_p99 "repl.lag"));
  if overhead then
    report "obs.trace_overhead_frac" "ratio"
      ((median traced_ms /. median (latencies ~traced:false c)) -. 1.)
      ~note:"traced against untraced requests, alternating";
  codec_layer c.codec_msgs;
  let layer_dir = Filename.concat run_dir "layers" in
  mkdir_p layer_dir;
  journal_layer ~dir:layer_dir (Gen.tc_program st ~n:durable_edges).Gen.text;
  [ primary_shard; Filename.concat pair.dir "standby.trace" ]
