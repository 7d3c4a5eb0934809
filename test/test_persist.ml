(** Durability subsystem tests: codec roundtrips, journal framing and
    torn-tail tolerance, atomic snapshots, and the acceptance-critical
    crash-determinism property — killing a journaled run after each of
    the first 50 records (through the real write path, via fault
    injection) and resuming yields an instance isomorphic to the
    uninterrupted run's. *)

open Chase
open Test_util

(* ------------------------------------------------------------------ *)
(* Workload: a terminating oblivious chase with 165 trigger
   applications (> 50) and 45 invented nulls over a 9-edge path. *)

let rules () =
  parse "tc: e(X, Y), e(Y, Z) -> e(X, Z).  mk: e(X, Y) -> r(X, W)."

let db () =
  List.init 9 (fun i -> fact (Fmt.str "e(a%d, a%d)" i (i + 1)))

let config variant = { Engine.default_config with variant; limits = Limits.of_budget 10_000 }

let tmp_journal =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "chase_test_%d_%d.jnl" (Unix.getpid ()) !n)

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; Session.snapshot_path path ]

(** Run the chase while journaling to [path]; a [fault] simulates a
    crash through the real write path ([Faults.Crash] escapes). *)
let run_journaled ?snapshot_every ?fsync_every ?fault
    ?(variant = Variant.Oblivious) path rules db =
  let session =
    Session.start ~journal:path
      ~snapshot:(Session.snapshot_path path)
      ?snapshot_every ?fsync_every ?fault ~variant ~rules ~db ()
  in
  let result =
    Engine.run ~config:(config variant)
      ~on_trigger:(Session.on_trigger session)
      rules db
  in
  Session.finish session;
  result

let recover_exn ?snapshot ?repair ~variant path rules db =
  match Recovery.recover ?snapshot ?repair ~journal:path ~variant ~rules ~db ()
  with
  | Ok report -> report
  | Error msg -> Alcotest.fail ("recovery failed: " ^ msg)

(** Instances are equal up to null renaming, with matching sizes. *)
let check_isomorphic msg i1 i2 =
  Alcotest.(check int) (msg ^ ": cardinal") (Instance.cardinal i1)
    (Instance.cardinal i2);
  Alcotest.(check int) (msg ^ ": nulls") (Instance.null_count i1)
    (Instance.null_count i2);
  Alcotest.(check bool) (msg ^ ": hom-equivalent") true (hom_equivalent i1 i2)

(* ------------------------------------------------------------------ *)
(* Codec *)

let test_crc32 () =
  (* the classic IEEE 802.3 check vector *)
  Alcotest.(check int) "crc32(123456789)" 0xcbf43926
    (Codec.Crc32.digest "123456789");
  Alcotest.(check int) "crc32 empty" 0 (Codec.Crc32.digest "");
  Alcotest.(check int) "crc32 substring" (Codec.Crc32.digest "bc")
    (Codec.Crc32.digest ~pos:1 ~len:2 "abcd")

let term_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Term.Const (Fmt.str "c%d" i)) (int_range 0 30);
        map (fun i -> Term.Var (Fmt.str "X%d" i)) (int_range 0 30);
        map (fun i -> Term.Null i) (int_range 1 100_000);
      ])

let atom_gen =
  QCheck.Gen.(
    map2
      (fun p args -> Atom.of_list (Fmt.str "p%d" p) args)
      (int_range 0 10)
      (list_size (int_range 0 4) term_gen))

let step_gen =
  QCheck.Gen.(
    map
      (fun (step, idx, bindings, depth, nulls, atoms) ->
        {
          Codec.step = step;
          rule_index = idx;
          rule_name = Fmt.str "r%d" idx;
          hom =
            List.fold_left
              (fun s (x, t) ->
                match Subst.bind s x t with Some s' -> s' | None -> s)
              Subst.empty bindings;
          depth;
          created_nulls = List.sort_uniq compare nulls;
          created_atoms = atoms;
        })
      (tup6 (int_range 1 1_000_000) (int_range 0 50)
         (list_size (int_range 0 6)
            (map2 (fun i t -> (Fmt.str "V%d" i, t)) (int_range 0 20) term_gen))
         (int_range 0 64)
         (list_size (int_range 0 4) (int_range 1 100_000))
         (list_size (int_range 0 4) atom_gen)))

let step_equal (a : Codec.step_record) (b : Codec.step_record) =
  a.Codec.step = b.Codec.step
  && a.rule_index = b.rule_index
  && a.rule_name = b.rule_name
  && Subst.equal a.hom b.hom
  && a.depth = b.depth
  && a.created_nulls = b.created_nulls
  && List.length a.created_atoms = List.length b.created_atoms
  && List.for_all2 Atom.equal a.created_atoms b.created_atoms

let step_roundtrip =
  qcheck ~count:300 "step record roundtrips"
    (QCheck.make ~print:(Fmt.to_to_string Codec.pp_step) step_gen)
    (fun sr -> step_equal sr (Codec.decode_step (Codec.encode_step sr)))

let varint_roundtrip =
  qcheck ~count:300 "varint roundtrips"
    QCheck.(int_bound max_int)
    (fun n ->
      let b = Buffer.create 10 in
      Codec.put_varint b n;
      Codec.get_varint (Codec.reader (Buffer.contents b)) = n)

let test_decode_garbage () =
  List.iter
    (fun s ->
      match Codec.decode_step s with
      | _ -> Alcotest.fail "garbage decoded"
      | exception Codec.Corrupt _ -> ())
    [ ""; "\x00"; "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"; "\x01\x02" ]

(* ------------------------------------------------------------------ *)
(* Journal *)

let test_journal_roundtrip () =
  let rules = rules () and db = db () in
  let path = tmp_journal () in
  let result = run_journaled path rules db in
  Alcotest.(check bool) "terminated" true
    (result.Engine.status = Engine.Terminated);
  (match Journal.read path with
  | Error msg -> Alcotest.fail msg
  | Ok (header, records, tail) ->
    Alcotest.(check bool) "tail clean" true (tail = Journal.Clean);
    Alcotest.(check int) "one record per trigger"
      result.Engine.triggers_applied (List.length records);
    Alcotest.(check (result unit string)) "header matches" (Ok ())
      (Journal.matches header ~variant:Variant.Oblivious ~rules ~db);
    Alcotest.(check bool) "variant mismatch refused" true
      (Result.is_error
         (Journal.matches header ~variant:Variant.Restricted ~rules ~db));
    Alcotest.(check bool) "rules mismatch refused" true
      (Result.is_error
         (Journal.matches header ~variant:Variant.Oblivious
            ~rules:(parse "q: e(X, Y) -> e(Y, X).")
            ~db));
    Alcotest.(check bool) "db mismatch refused" true
      (Result.is_error
         (Journal.matches header ~variant:Variant.Oblivious ~rules
            ~db:[ fact "e(z, z)" ]));
    (* step records are contiguous from 1 *)
    List.iteri
      (fun i sr ->
        Alcotest.(check int) "contiguous step" (i + 1) sr.Codec.step)
      records);
  cleanup path

let test_journal_missing_and_garbage () =
  Alcotest.(check bool) "missing file is an error" true
    (Result.is_error (Journal.read "/nonexistent/journal.jnl"));
  let path = tmp_journal () in
  let oc = open_out_bin path in
  output_string oc "this is not a chase journal at all";
  close_out oc;
  Alcotest.(check bool) "bad magic is an error" true
    (Result.is_error (Journal.read path));
  cleanup path

(* ------------------------------------------------------------------ *)
(* Snapshot *)

let test_snapshot_roundtrip () =
  let rules = rules () and db = db () in
  let path = tmp_journal () in
  let _ = run_journaled ~snapshot_every:10 path rules db in
  let spath = Session.snapshot_path path in
  (match Snapshot.read spath with
  | Error msg -> Alcotest.fail msg
  | Ok s ->
    Alcotest.(check int) "snapshot covers the full run" 165
      s.Snapshot.last_step;
    Alcotest.(check int) "records match last_step" s.Snapshot.last_step
      (List.length s.Snapshot.records));
  (* flip one payload byte: the snapshot must become unusable, not lie *)
  let ic = open_in_bin spath in
  let blob = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let corrupted = Bytes.of_string blob in
  let mid = Bytes.length corrupted / 2 in
  Bytes.set corrupted mid (Char.chr (Char.code (Bytes.get corrupted mid) lxor 0xff));
  let oc = open_out_bin spath in
  output_bytes oc corrupted;
  close_out oc;
  Alcotest.(check bool) "corrupted snapshot rejected" true
    (Result.is_error (Snapshot.read spath));
  (* recovery falls back to the journal alone *)
  let report = recover_exn ~snapshot:spath ~variant:Variant.Oblivious path rules db in
  Alcotest.(check int) "journal carries the run" 165
    report.Recovery.resume.Engine.next_step;
  Alcotest.(check int) "snapshot ignored" 0 report.Recovery.snapshot_step;
  cleanup path

(* ------------------------------------------------------------------ *)
(* Crash determinism: the acceptance property *)

let test_crash_determinism () =
  let rules = rules () and db = db () in
  let baseline = chase rules db in
  Alcotest.(check bool) "baseline terminated" true
    (baseline.Engine.status = Engine.Terminated);
  Alcotest.(check bool) "workload is large enough" true
    (baseline.Engine.triggers_applied > 50);
  for k = 1 to 50 do
    let path = tmp_journal () in
    (match
       run_journaled ~fault:(Faults.Kill_after_record k) ~fsync_every:1 path
         rules db
     with
    | _ -> Alcotest.fail "armed crash did not fire"
    | exception Faults.Crash _ -> ());
    let report = recover_exn ~variant:Variant.Oblivious path rules db in
    Alcotest.(check int)
      (Fmt.str "k=%d: journal holds exactly k records" k)
      k
      (List.length report.Recovery.history);
    Alcotest.(check bool) (Fmt.str "k=%d: tail is clean" k) true
      (report.Recovery.torn = None);
    let resumed =
      Engine.run ~config:(config Variant.Oblivious)
        ~resume:report.Recovery.resume rules db
    in
    Alcotest.(check bool) (Fmt.str "k=%d: resumed run terminated" k) true
      (resumed.Engine.status = Engine.Terminated);
    Alcotest.(check int) (Fmt.str "k=%d: total triggers" k)
      baseline.Engine.triggers_applied resumed.Engine.triggers_applied;
    Alcotest.(check int) (Fmt.str "k=%d: total nulls" k)
      baseline.Engine.nulls_created resumed.Engine.nulls_created;
    check_isomorphic (Fmt.str "k=%d" k) baseline.Engine.instance
      resumed.Engine.instance;
    (match Engine.check_provenance resumed ~db with
    | Ok () -> ()
    | Error msg ->
      Alcotest.fail (Fmt.str "k=%d: provenance check failed: %s" k msg));
    cleanup path
  done

let test_torn_tail_truncation () =
  let rules = rules () and db = db () in
  let baseline = chase rules db in
  (* tear the k-th record's frame after [bytes] bytes: recovery must
     keep the first k-1 records and truncate the torn tail silently *)
  List.iter
    (fun (k, bytes) ->
      let path = tmp_journal () in
      (match
         run_journaled ~fault:(Faults.Torn_write (k, bytes)) ~fsync_every:1
           path rules db
       with
      | _ -> Alcotest.fail "armed torn write did not fire"
      | exception Faults.Crash _ -> ());
      let report = recover_exn ~variant:Variant.Oblivious path rules db in
      Alcotest.(check int)
        (Fmt.str "k=%d,b=%d: valid prefix" k bytes)
        (k - 1)
        (List.length report.Recovery.history);
      Alcotest.(check bool)
        (Fmt.str "k=%d,b=%d: torn tail detected" k bytes)
        true
        (report.Recovery.torn <> None);
      Alcotest.(check bool)
        (Fmt.str "k=%d,b=%d: journal repaired" k bytes)
        true report.Recovery.repaired;
      (* after repair the journal reads back clean *)
      (match Journal.read path with
      | Ok (_, records, tail) ->
        Alcotest.(check bool) "clean after repair" true (tail = Journal.Clean);
        Alcotest.(check int) "records survive repair" (k - 1)
          (List.length records)
      | Error msg -> Alcotest.fail msg);
      let resumed =
        Engine.run ~config:(config Variant.Oblivious)
          ~resume:report.Recovery.resume rules db
      in
      check_isomorphic
        (Fmt.str "k=%d,b=%d" k bytes)
        baseline.Engine.instance resumed.Engine.instance;
      cleanup path)
    [ (1, 3); (2, 7); (10, 1); (25, 11); (50, 20); (100, 5) ]

let test_snapshot_ahead_of_journal () =
  let rules = rules () and db = db () in
  let baseline = chase rules db in
  let path = tmp_journal () in
  let _ = run_journaled ~snapshot_every:10 path rules db in
  (* lose most of the journal but keep the (complete) snapshot: recovery
     must prefer the snapshot and rewrite the journal to match it *)
  Journal.truncate_at path 200;
  let report =
    recover_exn
      ~snapshot:(Session.snapshot_path path)
      ~variant:Variant.Oblivious path rules db
  in
  Alcotest.(check int) "snapshot carries the run" 165
    report.Recovery.snapshot_step;
  Alcotest.(check int) "history from the snapshot" 165
    (List.length report.Recovery.history);
  Alcotest.(check bool) "journal rewritten" true report.Recovery.repaired;
  (match Journal.read path with
  | Ok (_, records, tail) ->
    Alcotest.(check bool) "rewritten journal is clean" true
      (tail = Journal.Clean);
    Alcotest.(check int) "rewritten journal holds the history" 165
      (List.length records)
  | Error msg -> Alcotest.fail msg);
  let resumed =
    Engine.run ~config:(config Variant.Oblivious)
      ~resume:report.Recovery.resume rules db
  in
  check_isomorphic "snapshot recovery" baseline.Engine.instance
    resumed.Engine.instance;
  cleanup path

let test_resume_continues_journal () =
  let rules = rules () and db = db () in
  let baseline = chase rules db in
  let path = tmp_journal () in
  (match
     run_journaled ~fault:(Faults.Kill_after_record 40) ~fsync_every:1 path
       rules db
   with
  | _ -> Alcotest.fail "armed crash did not fire"
  | exception Faults.Crash _ -> ());
  let report = recover_exn ~variant:Variant.Oblivious path rules db in
  let session = Session.continue_ ~journal:path ~fsync_every:1 report in
  let resumed =
    Engine.run ~config:(config Variant.Oblivious)
      ~resume:report.Recovery.resume
      ~on_trigger:(Session.on_trigger session) rules db
  in
  Session.finish session;
  Alcotest.(check bool) "resumed run terminated" true
    (resumed.Engine.status = Engine.Terminated);
  (* the continued journal now records the complete run *)
  (match Journal.read path with
  | Ok (_, records, tail) ->
    Alcotest.(check bool) "continued journal clean" true
      (tail = Journal.Clean);
    Alcotest.(check int) "continued journal is complete"
      baseline.Engine.triggers_applied (List.length records)
  | Error msg -> Alcotest.fail msg);
  (* a second recovery replays the whole run; resuming it is a no-op *)
  let report2 = recover_exn ~variant:Variant.Oblivious path rules db in
  let resumed2 =
    Engine.run ~config:(config Variant.Oblivious)
      ~resume:report2.Recovery.resume rules db
  in
  Alcotest.(check int) "no new triggers on a finished run"
    baseline.Engine.triggers_applied resumed2.Engine.triggers_applied;
  check_isomorphic "doubly recovered" baseline.Engine.instance
    resumed2.Engine.instance;
  cleanup path

let test_restricted_resume () =
  let rules = rules () and db = db () in
  let path = tmp_journal () in
  (match
     run_journaled ~variant:Variant.Restricted
       ~fault:(Faults.Kill_after_record 10) ~fsync_every:1 path rules db
   with
  | _ -> Alcotest.fail "armed crash did not fire"
  | exception Faults.Crash _ -> ());
  let report = recover_exn ~variant:Variant.Restricted path rules db in
  let resumed =
    Engine.run ~config:(config Variant.Restricted)
      ~resume:report.Recovery.resume rules db
  in
  Alcotest.(check bool) "restricted resume terminated" true
    (resumed.Engine.status = Engine.Terminated);
  Alcotest.(check bool) "restricted resume is a model" true
    (Engine.is_model rules resumed.Engine.instance);
  (match Engine.check_provenance resumed ~db with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("restricted provenance: " ^ msg));
  cleanup path

(* Regression: the resume record carries its counters ([applied_count],
   [created_count]) instead of the engine re-deriving them with
   [List.length] on every resume — and a resumed run's final counters
   must match the uninterrupted run's exactly, at any kill point
   (including a kill after the very last record). *)
let test_resume_counters_exact () =
  let rules = rules () and db = db () in
  let baseline = chase rules db in
  List.iter
    (fun k ->
      let path = tmp_journal () in
      (match
         run_journaled ~fault:(Faults.Kill_after_record k) ~fsync_every:1 path
           rules db
       with
      | _ -> Alcotest.fail "armed crash did not fire"
      | exception Faults.Crash _ -> ());
      let report = recover_exn ~variant:Variant.Oblivious path rules db in
      let resume = report.Recovery.resume in
      Alcotest.(check int)
        (Fmt.str "k=%d: carried applied_count" k)
        (List.length resume.Engine.applied)
        resume.Engine.applied_count;
      Alcotest.(check int)
        (Fmt.str "k=%d: applied_count = journal records" k)
        k resume.Engine.applied_count;
      Alcotest.(check int)
        (Fmt.str "k=%d: carried created_count" k)
        (List.length resume.Engine.derivations)
        resume.Engine.created_count;
      let resumed =
        Engine.run ~config:(config Variant.Oblivious) ~resume rules db
      in
      Alcotest.(check int)
        (Fmt.str "k=%d: triggers applied match uninterrupted run" k)
        baseline.Engine.triggers_applied resumed.Engine.triggers_applied;
      Alcotest.(check int)
        (Fmt.str "k=%d: atoms created match uninterrupted run" k)
        baseline.Engine.atoms_created resumed.Engine.atoms_created;
      Alcotest.(check int)
        (Fmt.str "k=%d: nulls created match uninterrupted run" k)
        baseline.Engine.nulls_created resumed.Engine.nulls_created;
      cleanup path)
    [ 1; 17; 83; 164; 165 ]

(* ------------------------------------------------------------------ *)
(* Recovery racing a concurrent snapshot: the kill lands while the
   snapshot writer is mid-temp-file and the journal has advanced past
   the last complete snapshot.  The atomic write-temp/rename discipline
   means the visible [.snap] is always either a previous complete
   snapshot or absent — what a kill leaves behind is [.snap.tmp] litter
   (and, on a dying disk, possibly a scribbled [.snap]).  Twenty kill
   points, cycling the litter shapes; recovery must pick the best valid
   prefix every time and never trip over the litter. *)

let scribble path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let truncate_file path frac =
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let keep = in_channel_length ic * frac / 100 in
    let blob = really_input_string ic keep in
    close_in ic;
    scribble path blob
  end

let test_snapshot_race () =
  let rules = rules () and db = db () in
  let baseline = chase rules db in
  let total = baseline.Engine.triggers_applied in
  for i = 0 to 19 do
    let k = 5 + (8 * i) in
    Alcotest.(check bool) "kill point within the run" true (k < total);
    let path = tmp_journal () in
    let spath = Session.snapshot_path path in
    let tmp = spath ^ ".tmp" in
    (match
       run_journaled ~snapshot_every:8 ~fsync_every:1
         ~fault:(Faults.Kill_after_record k) path rules db
     with
    | _ -> Alcotest.fail "armed crash did not fire"
    | exception Faults.Crash _ -> ());
    (match i mod 4 with
    | 0 ->
      (* killed mid-temp-write: torn [.snap.tmp], [.snap] intact *)
      scribble tmp "CHSNAPSH torn half-way through"
    | 1 ->
      (* killed before the first snapshot ever completed *)
      if Sys.file_exists spath then Sys.remove spath;
      scribble tmp "x"
    | 2 ->
      (* a dying disk scribbled over the visible snapshot *)
      truncate_file spath 33;
      scribble tmp ""
    | _ -> () (* the rename happened; no litter at all *));
    let report =
      recover_exn ~snapshot:spath ~variant:Variant.Oblivious path rules db
    in
    (* the journal held every record (fsync_every:1), so the best valid
       prefix is all k of them regardless of what the snapshot said *)
    Alcotest.(check int)
      (Fmt.str "i=%d k=%d: best valid prefix" i k)
      k
      (List.length report.Recovery.history);
    let resumed =
      Engine.run ~config:(config Variant.Oblivious)
        ~resume:report.Recovery.resume rules db
    in
    Alcotest.(check bool) (Fmt.str "i=%d k=%d: terminated" i k) true
      (resumed.Engine.status = Engine.Terminated);
    check_isomorphic
      (Fmt.str "i=%d k=%d" i k)
      baseline.Engine.instance resumed.Engine.instance;
    if Sys.file_exists tmp then Sys.remove tmp;
    cleanup path
  done

let test_snapshot_race_ahead () =
  (* the complement: the snapshot is complete and AHEAD of a torn
     journal, with temp litter on top — recovery must prefer the
     snapshot's longer prefix and still ignore the litter *)
  let rules = rules () and db = db () in
  let baseline = chase rules db in
  let path = tmp_journal () in
  let spath = Session.snapshot_path path in
  let _ = run_journaled ~snapshot_every:10 path rules db in
  Journal.truncate_at path 200;
  scribble (spath ^ ".tmp") "CHSNAPSH litter from a later racing write";
  let report =
    recover_exn ~snapshot:spath ~variant:Variant.Oblivious path rules db
  in
  Alcotest.(check int) "snapshot prefix wins" 165
    (List.length report.Recovery.history);
  let resumed =
    Engine.run ~config:(config Variant.Oblivious)
      ~resume:report.Recovery.resume rules db
  in
  check_isomorphic "snapshot-ahead race" baseline.Engine.instance
    resumed.Engine.instance;
  Sys.remove (spath ^ ".tmp");
  cleanup path

(* ------------------------------------------------------------------ *)
(* Write-fault composition: independent arming per journal path          *)

let test_faults_compose_same_record () =
  let rules = rules () and db = db () in
  let p1 = tmp_journal () and p2 = tmp_journal () in
  (* Kill_after_record and Torn_write armed together on one stream,
     same record: the torn write must win (the kill would have written
     record 5 in full first, which a torn append precludes) *)
  Faults.Writes.arm p1
    [ Faults.Kill_after_record 5; Faults.Torn_write (5, 4) ];
  Alcotest.(check int) "both faults armed" 2
    (List.length (Faults.Writes.armed_for p1));
  (match run_journaled ~fsync_every:1 p1 rules db with
  | _ -> Alcotest.fail "armed faults did not fire"
  | exception Faults.Crash _ -> ());
  let report = recover_exn ~variant:Variant.Oblivious p1 rules db in
  Alcotest.(check int) "torn beats kill: prefix is 4" 4
    (List.length report.Recovery.history);
  Alcotest.(check bool) "torn tail detected" true
    (report.Recovery.torn <> None);
  (* a second session on an unarmed path is untouched by p1's faults *)
  let r2 = run_journaled ~fsync_every:1 p2 rules db in
  Alcotest.(check bool) "unarmed path unaffected" true
    (r2.Engine.status = Engine.Terminated);
  Faults.Writes.reset ();
  Alcotest.(check int) "reset disarms" 0
    (List.length (Faults.Writes.armed_for p1));
  cleanup p1;
  cleanup p2

let test_faults_compose_ordered () =
  let rules = rules () and db = db () in
  let path = tmp_journal () in
  (* different records: whichever comes first fires; the other never
     gets the chance *)
  Faults.Writes.arm path
    [ Faults.Torn_write (12, 6); Faults.Kill_after_record 7 ];
  (match run_journaled ~fsync_every:1 path rules db with
  | _ -> Alcotest.fail "armed faults did not fire"
  | exception Faults.Crash _ -> ());
  Faults.Writes.reset ();
  let report = recover_exn ~variant:Variant.Oblivious path rules db in
  Alcotest.(check int) "kill at 7 fired first" 7
    (List.length report.Recovery.history);
  Alcotest.(check bool) "no torn tail" true (report.Recovery.torn = None);
  cleanup path

let test_faults_registry_merges_explicit () =
  let rules = rules () and db = db () in
  let path = tmp_journal () in
  (* registry faults combine with the explicitly passed one *)
  Faults.Writes.arm path [ Faults.Torn_write (6, 2) ];
  (match
     run_journaled ~fsync_every:1 ~fault:(Faults.Kill_after_record 20) path
       rules db
   with
  | _ -> Alcotest.fail "merged faults did not fire"
  | exception Faults.Crash _ -> ());
  Faults.Writes.reset ();
  let report = recover_exn ~variant:Variant.Oblivious path rules db in
  Alcotest.(check int) "registry torn fired before explicit kill" 5
    (List.length report.Recovery.history);
  Alcotest.(check bool) "torn detected" true (report.Recovery.torn <> None);
  cleanup path

let test_fsync_fail () =
  let rules = rules () and db = db () in
  let baseline = chase rules db in
  let path = tmp_journal () in
  (* a dying disk: the k-th fsync through the writer fails fatally;
     whatever reached the platters before it must still recover *)
  (match
     run_journaled ~fsync_every:1 ~fault:(Faults.Fsync_fail 3) path rules db
   with
  | _ -> Alcotest.fail "fsync fault did not fire"
  | exception Faults.Crash _ -> ());
  let report = recover_exn ~variant:Variant.Oblivious path rules db in
  Alcotest.(check bool) "some prefix survived" true
    (List.length report.Recovery.history >= 1);
  let resumed =
    Engine.run ~config:(config Variant.Oblivious)
      ~resume:report.Recovery.resume rules db
  in
  Alcotest.(check int) "resumed to the full run"
    baseline.Engine.triggers_applied resumed.Engine.triggers_applied;
  check_isomorphic "fsync-fail recovery" baseline.Engine.instance
    resumed.Engine.instance;
  cleanup path

let test_recover_wrong_program () =
  let rules = rules () and db = db () in
  let path = tmp_journal () in
  let _ = run_journaled path rules db in
  Alcotest.(check bool) "wrong rules refused" true
    (Result.is_error
       (Recovery.recover ~journal:path ~variant:Variant.Oblivious
          ~rules:(parse "q: e(X, Y) -> e(Y, X).")
          ~db ()));
  Alcotest.(check bool) "wrong variant refused" true
    (Result.is_error
       (Recovery.recover ~journal:path ~variant:Variant.Semi_oblivious ~rules
          ~db ()));
  Alcotest.(check bool) "wrong db refused" true
    (Result.is_error
       (Recovery.recover ~journal:path ~variant:Variant.Oblivious ~rules
          ~db:[ fact "e(z, z)" ] ()));
  cleanup path

let test_replay_rejects_tampering () =
  let rules = rules () and db = db () in
  let path = tmp_journal () in
  let _ = run_journaled path rules db in
  match Journal.read path with
  | Error msg -> Alcotest.fail msg
  | Ok (_, records, _) ->
    (* a journal whose recorded creations disagree with what the rules
       actually derive must not replay *)
    let tamper sr =
      { sr with Codec.created_atoms = [ fact "bogus(x)" ] }
    in
    let tampered =
      List.mapi (fun i sr -> if i = 4 then tamper sr else sr) records
    in
    Alcotest.(check bool) "tampered creations rejected" true
      (Result.is_error (Recovery.replay ~rules ~db tampered));
    (* a gap in the step numbering must not replay either *)
    let gappy = List.filteri (fun i _ -> i <> 2) records in
    Alcotest.(check bool) "gappy history rejected" true
      (Result.is_error (Recovery.replay ~rules ~db gappy));
    cleanup path

let suite =
  [
    Alcotest.test_case "crc32 vectors" `Quick test_crc32;
    step_roundtrip;
    varint_roundtrip;
    Alcotest.test_case "garbage payloads raise Corrupt" `Quick
      test_decode_garbage;
    Alcotest.test_case "journal roundtrip + identity checks" `Quick
      test_journal_roundtrip;
    Alcotest.test_case "missing/garbage journals are errors" `Quick
      test_journal_missing_and_garbage;
    Alcotest.test_case "snapshot roundtrip + corruption" `Quick
      test_snapshot_roundtrip;
    Alcotest.test_case "crash at each of the first 50 records" `Slow
      test_crash_determinism;
    Alcotest.test_case "torn tails are truncated, not fatal" `Quick
      test_torn_tail_truncation;
    Alcotest.test_case "snapshot ahead of a lost journal" `Quick
      test_snapshot_ahead_of_journal;
    Alcotest.test_case "resume continues the journal" `Quick
      test_resume_continues_journal;
    Alcotest.test_case "restricted-chase resume" `Quick test_restricted_resume;
    Alcotest.test_case "resume counters match the uninterrupted run" `Quick
      test_resume_counters_exact;
    Alcotest.test_case "wrong program/variant/db refused" `Quick
      test_recover_wrong_program;
    Alcotest.test_case "replay rejects tampered histories" `Quick
      test_replay_rejects_tampering;
    Alcotest.test_case "recovery races a killed snapshot (20 kill points)"
      `Slow test_snapshot_race;
    Alcotest.test_case "snapshot ahead of torn journal, with temp litter"
      `Quick test_snapshot_race_ahead;
    Alcotest.test_case "composed faults on one stream: torn beats kill"
      `Quick test_faults_compose_same_record;
    Alcotest.test_case "composed faults fire in record order" `Quick
      test_faults_compose_ordered;
    Alcotest.test_case "registry faults merge with explicit ones" `Quick
      test_faults_registry_merges_explicit;
    Alcotest.test_case "failed fsync loses nothing already synced" `Quick
      test_fsync_fail;
  ]
