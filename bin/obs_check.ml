(** [obs-check] — validate observability output files.

    A small CI checker for the files the CLIs emit: [--trace FILE]
    verifies a Chrome trace-event file (well-formed JSON, a non-empty
    top-level array, every event carries name/ph/ts, begin/end events
    balance as a stack), [--metrics FILE] verifies a metrics JSONL file
    (a [chase-metrics/1] schema header first, every line parses, at
    least one summary line follows).

    Distributed-tracing additions: [--tracectx FILE] verifies a merged
    Chrome trace (as produced by [chasec trace-merge]) as a {e trace
    tree} — every trace id has exactly one root span, every child's
    parent exists in the same trace, and no child starts before its
    root (within clock slack; spans shipped asynchronously to the
    standby may {e end} after the root ends, which is legal).
    [--telemetry FILE] verifies a [chase-telemetry/1] JSON snapshot;
    [--prom FILE] verifies Prometheus text-exposition syntax.

    Exit 0 when every checked file is valid, 1 otherwise. *)

module Jsonv = Chase.Jsonv

let fail fmt = Format.kasprintf (fun msg -> Error msg) fmt

let read_file = Chase.Fsutil.read_file

(* One trace event: name/ph/ts present and of the right shape; returns
   [ph] so the caller can stack-balance B against E. *)
let check_event i (ev : Jsonv.t) =
  match ev with
  | Jsonv.Obj _ -> (
    let str k = Option.bind (Jsonv.member k ev) Jsonv.to_string_opt in
    let num k = Option.bind (Jsonv.member k ev) Jsonv.to_float_opt in
    match (str "name", str "ph", num "ts") with
    | Some name, Some ph, Some _ -> Ok (name, ph)
    | None, _, _ -> fail "event %d: missing or non-string \"name\"" i
    | _, None, _ -> fail "event %d: missing or non-string \"ph\"" i
    | _, _, None -> fail "event %d: missing or non-numeric \"ts\"" i)
  | _ -> fail "event %d: not a JSON object" i

let check_trace path =
  match read_file path with
  | Error msg -> fail "%s: cannot read: %s" path msg
  | Ok src -> (
    match Jsonv.of_string src with
    | Error msg -> fail "%s: invalid JSON: %s" path msg
    | Ok (Jsonv.List []) -> fail "%s: empty trace (no events)" path
    | Ok (Jsonv.List events) -> (
      let rec walk i stack = function
        | [] -> (
          match stack with
          | [] -> Ok (List.length events)
          | name :: _ -> fail "%s: unclosed span %S at end of trace" path name)
        | ev :: rest -> (
          match check_event i ev with
          | Error msg -> fail "%s: %s" path msg
          | Ok (name, "B") -> walk (i + 1) (name :: stack) rest
          | Ok (name, "E") -> (
            match stack with
            | top :: below when String.equal top name ->
              walk (i + 1) below rest
            | top :: _ ->
              fail "%s: event %d: end of %S but %S is open" path i name top
            | [] -> fail "%s: event %d: end of %S with no open span" path i
                      name)
          | Ok (_, ("i" | "C" | "X" | "M")) -> walk (i + 1) stack rest
          | Ok (_, ph) -> fail "%s: event %d: unknown phase %S" path i ph)
      in
      match walk 0 [] events with
      | Error _ as e -> e
      | Ok n ->
        Printf.printf "trace OK: %s (%d events, spans balanced)\n" path n;
        Ok ())
    | Ok _ -> fail "%s: top level is not a JSON array" path)

let check_metrics path =
  match read_file path with
  | Error msg -> fail "%s: cannot read: %s" path msg
  | Ok src -> (
    let lines =
      String.split_on_char '\n' src
      |> List.filter (fun l -> String.trim l <> "")
    in
    match lines with
    | [] -> fail "%s: empty metrics file" path
    | header :: rest -> (
      let schema_ok =
        match Jsonv.of_string header with
        | Ok j -> (
          let str k = Option.bind (Jsonv.member k j) Jsonv.to_string_opt in
          match (str "type", str "schema") with
          | Some "schema", Some "chase-metrics/1" -> true
          | _ -> false)
        | Error _ -> false
      in
      if not schema_ok then
        fail "%s: first line is not the chase-metrics/1 schema header" path
      else if rest = [] then
        fail "%s: no metric lines after the schema header" path
      else
        let rec parse i = function
          | [] -> Ok ()
          | l :: rest -> (
            match Jsonv.of_string l with
            | Error msg -> fail "%s: line %d: invalid JSON: %s" path i msg
            | Ok j -> (
              match Option.bind (Jsonv.member "type" j) Jsonv.to_string_opt with
              | Some _ -> parse (i + 1) rest
              | None ->
                fail "%s: line %d: missing or non-string \"type\"" path i))
        in
        match parse 2 rest with
        | Error _ as e -> e
        | Ok () ->
          Printf.printf "metrics OK: %s (%d lines)\n" path
            (List.length lines);
          Ok ()))

(* --- merged-trace context validation ------------------------------- *)

(* One span as re-read from a merged ([chasec trace-merge]) file. *)
type ctx_span = {
  s_name : string;
  s_trace : string;
  s_span : string;
  s_parent : string option;
  s_ts : float;
}

(* Same-host shards share a clock, but two processes can stamp within
   a few ms of each other in either order; allow that much slack when
   asserting that children start inside their root. *)
let clock_slack_us = 50_000.

let check_tracectx path =
  match read_file path with
  | Error msg -> fail "%s: cannot read: %s" path msg
  | Ok src -> (
    match Jsonv.of_string src with
    | Error msg -> fail "%s: invalid JSON: %s" path msg
    | Ok (Jsonv.List events) -> (
      let str k ev = Option.bind (Jsonv.member k ev) Jsonv.to_string_opt in
      let num k ev = Option.bind (Jsonv.member k ev) Jsonv.to_float_opt in
      (* collect ph:"X" spans; metadata events carry no trace context *)
      let rec collect i acc = function
        | [] -> Ok (List.rev acc)
        | ev :: rest -> (
          match str "ph" ev with
          | Some "M" -> collect (i + 1) acc rest
          | Some "X" -> (
            let args = Option.value ~default:Jsonv.Null (Jsonv.member "args" ev) in
            match
              (str "name" ev, str "trace" args, str "span" args, num "ts" ev)
            with
            | Some s_name, Some s_trace, Some s_span, Some s_ts ->
              collect (i + 1)
                ({ s_name; s_trace; s_span; s_parent = str "parent" args; s_ts }
                :: acc)
                rest
            | _ ->
              fail "%s: event %d: X event lacks name/ts or args.trace/span"
                path i)
          | Some ph -> fail "%s: event %d: unexpected phase %S" path i ph
          | None -> fail "%s: event %d: missing \"ph\"" path i)
      in
      match collect 0 [] events with
      | Error _ as e -> e
      | Ok [] -> fail "%s: no spans" path
      | Ok spans -> (
        (* group by trace id *)
        let traces = Hashtbl.create 7 in
        List.iter
          (fun s ->
            Hashtbl.replace traces s.s_trace
              (s :: Option.value ~default:[] (Hashtbl.find_opt traces s.s_trace)))
          spans;
        let check_one trace spans =
          let ids = Hashtbl.create 16 in
          List.iter (fun s -> Hashtbl.replace ids s.s_span s) spans;
          match List.filter (fun s -> s.s_parent = None) spans with
          | [] -> fail "%s: trace %s: no root span" path trace
          | _ :: _ :: _ as roots ->
            fail "%s: trace %s: %d root spans (want exactly one)" path trace
              (List.length roots)
          | [ root ] ->
            List.fold_left
              (fun acc s ->
                match (acc, s.s_parent) with
                | (Error _ as e), _ -> e
                | Ok (), None -> Ok ()
                | Ok (), Some p ->
                  if not (Hashtbl.mem ids p) then
                    fail "%s: trace %s: span %S (%s) has unknown parent %s"
                      path trace s.s_name s.s_span p
                  else if s.s_ts < root.s_ts -. clock_slack_us then
                    fail
                      "%s: trace %s: span %S starts %.0fus before its root"
                      path trace s.s_name (root.s_ts -. s.s_ts)
                  else Ok ())
              (Ok ()) spans
        in
        match
          Hashtbl.fold
            (fun trace spans acc ->
              match acc with
              | Error _ -> acc
              | Ok n -> (
                match check_one trace spans with
                | Ok () -> Ok (n + 1)
                | Error _ as e -> e))
            traces (Ok 0)
        with
        | Error _ as e -> e
        | Ok n ->
          Printf.printf "tracectx OK: %s (%d spans, %d traces, parents \
                         resolved)\n"
            path (List.length spans) n;
          Ok ()))
    | Ok _ -> fail "%s: top level is not a JSON array" path)

(* --- telemetry snapshot (JSON) -------------------------------------- *)

let check_telemetry path =
  match read_file path with
  | Error msg -> fail "%s: cannot read: %s" path msg
  | Ok src -> (
    match Jsonv.of_string (String.trim src) with
    | Error msg -> fail "%s: invalid JSON: %s" path msg
    | Ok v -> (
      let str k = Option.bind (Jsonv.member k v) Jsonv.to_string_opt in
      let num k = Option.bind (Jsonv.member k v) Jsonv.to_float_opt in
      match (str "schema", str "build", num "uptime_s") with
      | Some "chase-telemetry/1", Some _, Some up when up >= 0. -> (
        let arr k =
          match Jsonv.member k v with
          | Some (Jsonv.List l) -> Ok l
          | _ -> fail "%s: missing array %S" path k
        in
        let named kind j =
          match Option.bind (Jsonv.member "name" j) Jsonv.to_string_opt with
          | Some _ -> (
            match Option.bind (Jsonv.member "value" j) Jsonv.to_float_opt with
            | Some _ -> Ok ()
            | None when kind = "histograms" -> (
              match Option.bind (Jsonv.member "p99" j) Jsonv.to_float_opt with
              | Some _ -> Ok ()
              | None -> fail "%s: a histogram lacks p99" path)
            | None -> fail "%s: a %s entry lacks a numeric value" path kind)
          | None -> fail "%s: a %s entry lacks a name" path kind
        in
        let check_arr kind =
          match arr kind with
          | Error _ as e -> e
          | Ok l ->
            List.fold_left
              (fun acc j -> match acc with Error _ -> acc | Ok () -> named kind j)
              (Ok ()) l
        in
        match
          List.fold_left
            (fun acc k -> match acc with Error _ -> acc | Ok () -> check_arr k)
            (Ok ())
            [ "counters"; "gauges"; "histograms" ]
        with
        | Error _ as e -> e
        | Ok () ->
          Printf.printf "telemetry OK: %s\n" path;
          Ok ())
      | Some "chase-telemetry/1", Some _, _ ->
        fail "%s: missing or negative uptime_s" path
      | Some "chase-telemetry/1", None, _ -> fail "%s: missing build id" path
      | _ -> fail "%s: not a chase-telemetry/1 snapshot" path))

(* --- Prometheus text exposition ------------------------------------- *)

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

let is_name s =
  s <> ""
  && (not (s.[0] >= '0' && s.[0] <= '9'))
  && String.for_all is_name_char s

(* [name] or [name{k="v",...}] — quotes must balance and close the
   braces; the value after the space must parse as a float. *)
let check_sample path i line =
  let n = String.length line in
  let name_end =
    let rec go j = if j < n && is_name_char line.[j] then go (j + 1) else j in
    go 0
  in
  if name_end = 0 then fail "%s: line %d: no metric name" path i
  else begin
    let rest_start =
      if name_end < n && line.[name_end] = '{' then begin
        (* scan the label block respecting quoted strings *)
        let rec scan j in_q =
          if j >= n then None
          else if in_q then
            if line.[j] = '\\' then scan (j + 2) true
            else scan (j + 1) (line.[j] <> '"')
          else if line.[j] = '"' then scan (j + 1) true
          else if line.[j] = '}' then Some (j + 1)
          else scan (j + 1) false
        in
        scan (name_end + 1) false
      end
      else Some name_end
    in
    match rest_start with
    | None -> fail "%s: line %d: unterminated label block" path i
    | Some j ->
      let value = String.trim (String.sub line j (n - j)) in
      if value = "" then fail "%s: line %d: no sample value" path i
      else if
        float_of_string_opt value = None
        && not (List.mem value [ "NaN"; "+Inf"; "-Inf" ])
      then fail "%s: line %d: bad sample value %S" path i value
      else Ok ()
  end

let check_prom path =
  match read_file path with
  | Error msg -> fail "%s: cannot read: %s" path msg
  | Ok src -> (
    let lines = String.split_on_char '\n' src in
    let rec walk i samples typed = function
      | [] ->
        if samples = 0 then fail "%s: no samples" path
        else begin
          Printf.printf "prom OK: %s (%d samples, %d types)\n" path samples
            typed;
          Ok ()
        end
      | line :: rest ->
        if String.trim line = "" then walk (i + 1) samples typed rest
        else if String.length line >= 1 && line.[0] = '#' then begin
          match String.split_on_char ' ' line with
          | "#" :: "TYPE" :: name :: kind :: []
            when is_name name
                 && List.mem kind
                      [ "counter"; "gauge"; "summary"; "histogram"; "untyped" ]
            ->
            walk (i + 1) samples (typed + 1) rest
          | "#" :: "HELP" :: name :: _ when is_name name ->
            walk (i + 1) samples typed rest
          | _ -> fail "%s: line %d: malformed comment %S" path i line
        end
        else (
          match check_sample path i line with
          | Ok () -> walk (i + 1) (samples + 1) typed rest
          | Error _ as e -> e)
    in
    walk 1 0 0 lines)

let usage () =
  prerr_endline
    "usage: obs-check [--trace FILE] [--metrics FILE] [--tracectx FILE]\n\
    \                 [--telemetry FILE] [--prom FILE]\n\
     Validate observability output files (Chrome trace / metrics JSONL /\n\
     merged distributed trace / telemetry snapshot / Prometheus text).";
  exit 1

let () =
  let rec parse checks = function
    | [] -> List.rev checks
    | "--trace" :: file :: rest -> parse (`Trace file :: checks) rest
    | "--metrics" :: file :: rest -> parse (`Metrics file :: checks) rest
    | "--tracectx" :: file :: rest -> parse (`Tracectx file :: checks) rest
    | "--telemetry" :: file :: rest -> parse (`Telemetry file :: checks) rest
    | "--prom" :: file :: rest -> parse (`Prom file :: checks) rest
    | _ -> usage ()
  in
  let checks = parse [] (List.tl (Array.to_list Sys.argv)) in
  if checks = [] then usage ();
  let failed = ref false in
  List.iter
    (fun check ->
      let r =
        match check with
        | `Trace f -> check_trace f
        | `Metrics f -> check_metrics f
        | `Tracectx f -> check_tracectx f
        | `Telemetry f -> check_telemetry f
        | `Prom f -> check_prom f
      in
      match r with
      | Ok () -> ()
      | Error msg ->
        Printf.eprintf "obs-check: %s\n" msg;
        failed := true)
    checks;
  exit (if !failed then 1 else 0)
