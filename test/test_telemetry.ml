(** The telemetry subsystem: Tjson encode/parse round-trips, span
    nesting as time containment (including under exceptions and across
    two domains), the no-op disabled path,
    Chrome trace well-formedness (parsed back and validated — one span per
    (routine, stage), monotonic timestamps, balanced nesting), counters
    accumulation across routines, harness wall-clock timing, and the
    --profile / --metrics rendering smoke tests. *)

open Epre_telemetry

(* ------------------------------------------------------------------ *)
(* Tjson                                                               *)

let test_tjson_roundtrip () =
  let v =
    Tjson.Obj
      [
        ("null", Tjson.Null);
        ("bools", Tjson.Arr [ Tjson.Bool true; Tjson.Bool false ]);
        ("int", Tjson.Int (-42));
        ("float", Tjson.Float 1.25);
        ("integral_float", Tjson.Float 3.0);
        ("string", Tjson.Str "quote \" backslash \\ newline \n tab \t");
        ("nested", Tjson.Obj [ ("empty_arr", Tjson.Arr []); ("empty_obj", Tjson.Obj []) ]);
      ]
  in
  match Tjson.parse (Tjson.to_string v) with
  | Error msg -> Alcotest.failf "round-trip parse failed: %s" msg
  | Ok parsed ->
    (* Integral floats intentionally re-read as ints; normalize both. *)
    let rec norm = function
      | Tjson.Float f when Float.is_integer f -> Tjson.Int (int_of_float f)
      | Tjson.Arr xs -> Tjson.Arr (List.map norm xs)
      | Tjson.Obj kvs -> Tjson.Obj (List.map (fun (k, x) -> (k, norm x)) kvs)
      | x -> x
    in
    Alcotest.(check bool) "round-trips" true (norm v = norm parsed)

let test_tjson_rejects () =
  List.iter
    (fun s ->
      match Tjson.parse s with
      | Ok _ -> Alcotest.failf "parser accepted malformed input %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "[1] trailing"; "\"unterminated"; "nul"; "{'a':1}" ]

let test_tjson_unicode () =
  match Tjson.parse {|"aéb"|} with
  | Ok (Tjson.Str s) -> Alcotest.(check string) "utf-8 decoded" "a\xc3\xa9b" s
  | Ok _ | Error _ -> Alcotest.fail "unicode escape did not parse to a string"

(* The per-byte encoder [Tjson.escape] must agree with: a quote, a
   backslash, \n, \t and \r as two-character escapes, any other byte
   below 0x20 as \u00XX, every other byte (UTF-8 included) verbatim. *)
let reference_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Byte strings weighted toward what escaping cares about: long plain
   runs, quotes, backslashes, control bytes and multi-byte UTF-8. *)
let gen_json_bytes =
  let open QCheck2.Gen in
  let piece =
    oneof
      [ string_size ~gen:printable (int_range 0 40);
        oneofl [ "\""; "\\"; "\n"; "\t"; "\r"; "\000"; "\031"; "\127"; "\u{e9}";
                 "\u{1F600}"; "\xff"; "\\u0041"; "/" ];
        string_size ~gen:(char_range '\000' '\255') (int_range 0 8) ]
  in
  map (String.concat "") (list_size (int_range 0 12) piece)

let tjson_escape_matches_reference =
  Helpers.qcheck_case ~count:1000 "tjson" "escape equals the per-byte encoder"
    gen_json_bytes (fun s -> Tjson.escape s = reference_escape s)

let tjson_string_roundtrip =
  Helpers.qcheck_case ~count:1000 "tjson" "a string parses back to itself"
    gen_json_bytes (fun s ->
      Tjson.parse (Tjson.to_string (Tjson.Str s)) = Ok (Tjson.Str s)
      && Tjson.to_string (Tjson.Str s) = "\"" ^ reference_escape s ^ "\"")

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

exception Boom

type span = Recorder.entry

(* Run [f] with trace retention on; its value and the span events it
   recorded, in completion order. *)
let traced f =
  Recorder.set_trace true;
  Fun.protect
    ~finally:(fun () -> Recorder.set_trace false)
    (fun () ->
      let v = f () in
      (v, Recorder.snapshot ()))

let spans_of f = snd (traced f)

let start_ns s = Telemetry.int_field s "start_ns"

let end_ns s = start_ns s + Telemetry.int_field s "dur_ns"

let raised (s : span) = List.assoc_opt "raised" s.Recorder.fields = Some (Tjson.Bool true)

let name (s : span) = s.Recorder.event

let span_kind s = Telemetry.str_field s "kind"

(* [inner] lies within [outer]'s interval on the same domain's track. *)
let contains (outer : span) (inner : span) =
  outer.Recorder.domain = inner.Recorder.domain
  && start_ns outer <= start_ns inner
  && end_ns inner <= end_ns outer

(* [a] closed before [b] opened. *)
let precedes a b = end_ns a <= start_ns b

let test_span_nesting_and_exceptions () =
  let spans =
    spans_of (fun () ->
        Telemetry.Span.with_ ~kind:"outer" ~name:"outer" (fun () ->
            Telemetry.Span.with_ ~kind:"inner" ~name:"ok-child" (fun () -> ());
            try
              Telemetry.Span.with_ ~kind:"inner" ~name:"raising-child" (fun () ->
                  raise Boom)
            with Boom -> ());
        (* A span after nested spans and a caught raise is a new top-level
           span, not a child of anything still open. *)
        Telemetry.Span.with_ ~name:"after" (fun () -> ()))
  in
  let find n = List.find (fun s -> name s = n) spans in
  Alcotest.(check int) "span count" 4 (List.length spans);
  Alcotest.(check bool) "child within outer" true (contains (find "outer") (find "ok-child"));
  Alcotest.(check bool) "raising child within outer" true
    (contains (find "outer") (find "raising-child"));
  Alcotest.(check bool) "siblings disjoint" true
    (precedes (find "ok-child") (find "raising-child"));
  Alcotest.(check bool) "post-exception span outside outer" true
    (precedes (find "outer") (find "after"));
  Alcotest.(check bool) "one domain" true
    (List.for_all (fun s -> s.Recorder.domain = (Domain.self () :> int)) spans);
  Alcotest.(check bool) "raise recorded" true (raised (find "raising-child"));
  Alcotest.(check bool) "no spurious raise flag" false (raised (find "outer"));
  (* Completion order: children close before their parent. *)
  Alcotest.(check (list string)) "completion order"
    [ "ok-child"; "raising-child"; "outer"; "after" ] (List.map name spans)

let test_span_escaping_exception_balances () =
  let spans =
    spans_of (fun () ->
        (try
           Telemetry.Span.with_ ~name:"outer" (fun () ->
               Telemetry.Span.with_ ~name:"inner" (fun () -> raise Boom))
         with Boom -> ());
        Telemetry.Span.with_ ~name:"after" (fun () -> ()))
  in
  let find n = List.find (fun s -> name s = n) spans in
  Alcotest.(check bool) "inner raised" true (raised (find "inner"));
  Alcotest.(check bool) "outer raised" true (raised (find "outer"));
  Alcotest.(check bool) "inner within outer" true (contains (find "outer") (find "inner"));
  Alcotest.(check bool) "after opens once the raise unwound" true
    (precedes (find "outer") (find "after"))

let test_spans_from_two_domains () =
  (* Two domains trace nested spans into one store at the same time.
     Each domain's spans land on its own track and nest there; the Chrome
     export gives every domain its own [tid]. *)
  let work tag () =
    for i = 1 to 20 do
      Telemetry.Span.with_ ~name:(Printf.sprintf "%s-outer-%d" tag i) (fun () ->
          Telemetry.Span.with_ ~name:(Printf.sprintf "%s-inner-%d" tag i) (fun () ->
              ignore (Sys.opaque_identity (List.init 50 Fun.id))))
    done
  in
  let spans =
    spans_of (fun () ->
        let d = Domain.spawn (work "b") in
        work "a" ();
        Domain.join d)
  in
  Alcotest.(check int) "span count" 80 (List.length spans);
  let domains = List.sort_uniq compare (List.map (fun s -> s.Recorder.domain) spans) in
  Alcotest.(check int) "two tracks" 2 (List.length domains);
  let find n = List.find (fun s -> name s = n) spans in
  List.iter
    (fun tag ->
      for i = 1 to 20 do
        Alcotest.(check bool)
          (Printf.sprintf "%s inner %d within its outer" tag i)
          true
          (contains
             (find (Printf.sprintf "%s-outer-%d" tag i))
             (find (Printf.sprintf "%s-inner-%d" tag i)))
      done)
    [ "a"; "b" ];
  let tids =
    match Tjson.member "traceEvents" (Chrome_trace.to_json spans) with
    | Some (Tjson.Arr evs) ->
      List.sort_uniq compare (List.map (fun ev -> Tjson.member "tid" ev) evs)
    | _ -> Alcotest.fail "traceEvents array missing"
  in
  Alcotest.(check int) "one tid per domain" 2 (List.length tids)

let test_span_feeds_histogram_once () =
  (* A span's close is the one clock reading behind both outputs: one
     event in the store and one histogram observation, equal durations. *)
  Metrics.reset_for_testing ();
  let spans =
    spans_of (fun () ->
        Telemetry.Span.with_ ~kind:"pass" ~hist:"obs.span" ~name:"timed" (fun () ->
            ignore (Sys.opaque_identity (List.init 100 Fun.id))))
  in
  let m = Histogram.merged (Histogram.handle ~name:"obs.span") in
  (match spans with
  | [ s ] ->
    Alcotest.(check int) "one observation" 1 m.Histogram.count;
    Alcotest.(check int) "same duration" (Telemetry.int_field s "dur_ns") m.Histogram.sum
  | _ -> Alcotest.failf "expected one span event, got %d" (List.length spans));
  (* With the store off the histogram is still fed. *)
  Telemetry.Span.with_ ~hist:"obs.span" ~name:"untraced" (fun () -> ());
  Alcotest.(check int) "observed without a store" 2
    (Histogram.merged (Histogram.handle ~name:"obs.span")).Histogram.count;
  Metrics.reset_for_testing ()

let test_disabled_is_noop () =
  Alcotest.(check bool) "disabled" false (Recorder.enabled ());
  let v = Telemetry.Span.with_ ~name:"ignored" (fun () -> 17) in
  Alcotest.(check int) "value passes through" 17 v;
  let spans = spans_of (fun () -> ()) in
  Alcotest.(check int) "nothing was recorded" 0 (List.length spans)

(* ------------------------------------------------------------------ *)
(* Chrome trace of a pipeline run                                      *)

let distribution_stages =
  [ "reassociation"; "gvn"; "pre"; "constprop"; "peephole"; "dce"; "coalesce";
    "pre"; "dce"; "clean" ]

let trace_of_optimized_workload () =
  let w = Option.get (Epre_workloads.Workloads.find "saxpy") in
  let prog = Epre_workloads.Workloads.compile w in
  let (), spans =
    traced (fun () ->
        ignore (Epre.Pipeline.optimize ~level:Epre.Pipeline.Distribution prog))
  in
  (spans, List.map (fun (r : Epre_ir.Routine.t) -> r.Epre_ir.Routine.name)
            (Epre_ir.Program.routines prog))

let test_chrome_trace_wellformed () =
  let spans, routines = trace_of_optimized_workload () in
  let json =
    match Tjson.parse (Chrome_trace.to_string spans) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "trace JSON malformed: %s" msg
  in
  let events =
    match Tjson.member "traceEvents" json with
    | Some (Tjson.Arr evs) -> evs
    | _ -> Alcotest.fail "traceEvents array missing"
  in
  Alcotest.(check bool) "has events" true (events <> []);
  let str_field name ev =
    match Tjson.member name ev with
    | Some (Tjson.Str s) -> s
    | _ -> Alcotest.failf "event field %s missing or not a string" name
  in
  let num_field name ev =
    match Tjson.member name ev with
    | Some (Tjson.Int i) -> float_of_int i
    | Some (Tjson.Float f) -> f
    | _ -> Alcotest.failf "event field %s missing or not a number" name
  in
  (* Every event is a complete event with monotone non-decreasing ts. *)
  List.iter
    (fun ev -> Alcotest.(check string) "phase" "X" (str_field "ph" ev))
    events;
  let ts = List.map (num_field "ts") events in
  Alcotest.(check bool) "timestamps monotone" true (ts = List.sort compare ts);
  (* One "pass" event per (routine, stage occurrence) of the level —
     [pre] and [dce] run twice (main round and the post-coalesce cleanup
     round), everything else once. *)
  let pass_events =
    List.filter (fun ev -> str_field "cat" ev = "pass") events
  in
  List.iter
    (fun routine ->
      List.iter
        (fun stage ->
          let expected =
            List.length (List.filter (String.equal stage) distribution_stages)
          in
          let n =
            List.length
              (List.filter
                 (fun ev ->
                   str_field "name" ev = stage
                   && (match Tjson.member "args" ev with
                      | Some args -> Tjson.member "routine" args = Some (Tjson.Str routine)
                      | None -> false))
                 pass_events)
          in
          Alcotest.(check int)
            (Printf.sprintf "spans for (%s, %s)" routine stage)
            expected n)
        (List.sort_uniq compare distribution_stages))
    routines;
  (* Balanced nesting: on each track, events either nest or are
     disjoint — no partial overlap. *)
  let intervals =
    List.map
      (fun ev ->
        (num_field "tid" ev, num_field "ts" ev, num_field "ts" ev +. num_field "dur" ev))
      events
  in
  List.iteri
    (fun i (t1, s1, e1) ->
      List.iteri
        (fun j (t2, s2, e2) ->
          if i < j && t1 = t2 && s2 < e1 && s1 < e2 then
            (* overlap: must be containment one way or the other *)
            Alcotest.(check bool) "events nest" true
              ((s1 <= s2 && e2 <= e1) || (s2 <= s1 && e1 <= e2)))
        intervals)
    intervals

let test_ir_size_deltas () =
  let spans, _ = trace_of_optimized_workload () in
  let pass_spans = List.filter (fun s -> span_kind s = "pass") spans in
  let size s k =
    match List.assoc_opt k s.Recorder.fields with
    | Some (Tjson.Int i) -> i
    | _ -> Alcotest.failf "pass span %s lost its IR size %s" (name s) k
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) "sizes positive" true
        (List.for_all
           (fun k -> size s k > 0)
           [ "blocks_before"; "instrs_before"; "blocks_after"; "instrs_after" ]))
    pass_spans;
  (* The whole distribution pipeline shrinks saxpy's instruction count. *)
  let total_delta =
    List.fold_left
      (fun acc s -> acc + size s "instrs_after" - size s "instrs_before")
      0 pass_spans
  in
  Alcotest.(check bool) "pipeline net shrink recorded" true (total_delta < 0)

(* ------------------------------------------------------------------ *)
(* Counters registry                                                   *)

let test_counters_accumulate () =
  Metrics.reset_for_testing ();
  Metrics.add ~routine:"a" ~name:"widgets" 2;
  Metrics.add ~routine:"a" ~name:"widgets" 3;
  Metrics.incr ~routine:"b" ~name:"widgets";
  Metrics.add ~routine:"a" ~name:"gadgets" 1;
  Alcotest.(check int) "accumulates" 5 (Metrics.get ~routine:"a" ~name:"widgets");
  Alcotest.(check int) "separate routines" 1 (Metrics.get ~routine:"b" ~name:"widgets");
  Alcotest.(check int) "unknown is zero" 0 (Metrics.get ~routine:"c" ~name:"widgets");
  let snap = Metrics.snapshot () in
  Alcotest.(check int) "entries" 3 (List.length snap);
  Alcotest.(check bool) "sorted by routine then name" true
    (List.map (fun e -> (e.Metrics.routine, e.Metrics.name)) snap
    = [ ("a", "gadgets"); ("a", "widgets"); ("b", "widgets") ]);
  Metrics.reset_for_testing ();
  Alcotest.(check int) "reset" 0 (List.length (Metrics.snapshot ()))

let test_pipeline_fills_registry () =
  Metrics.reset_for_testing ();
  let prog =
    Helpers.compile
      {|
fn f(x: int): int { return x * 4 + x * 4; }
fn main(): int { var a: int = f(3); var b: int = f(5); return a + b; }
|}
  in
  ignore (Epre.Pipeline.optimize ~level:Epre.Pipeline.Partial prog);
  let snap = Metrics.snapshot () in
  let routines_seen =
    List.sort_uniq compare (List.map (fun e -> e.Metrics.routine) snap)
  in
  Alcotest.(check (list string)) "counters for every routine" [ "f"; "main" ]
    routines_seen;
  List.iter
    (fun routine ->
      Alcotest.(check bool)
        (routine ^ " has pipeline counters")
        true
        (List.exists
           (fun e -> e.Metrics.routine = routine && e.Metrics.name = "dce.removed")
           snap))
    routines_seen;
  (* JSONL rendering: every line parses as a JSON object. *)
  String.split_on_char '\n' (Metrics.to_jsonl snap)
  |> List.iter (fun line ->
         match Tjson.parse line with
         | Ok (Tjson.Obj _) -> ()
         | Ok _ | Error _ -> Alcotest.failf "bad metrics JSONL line %S" line);
  Metrics.reset_for_testing ()

(* ------------------------------------------------------------------ *)
(* Harness timing and stats JSON                                       *)

let test_harness_wall_clock () =
  let prog = Helpers.compile "fn main(): int { return 2 + 3; }" in
  let spin = { Epre_harness.Harness.pass_name = "spin";
               run = (fun _ ->
                 (* Burn ~2ms of wall clock on the monotonic clock itself. *)
                 let t0 = Telemetry.Clock.now_ns () in
                 while Telemetry.Clock.elapsed_ms ~since:t0 < 2.0 do () done);
               checks = Epre_harness.Harness.no_checks }
  in
  let records =
    Epre_harness.Harness.supervise Epre_harness.Harness.default_config
      ~passes:[ spin ] prog
  in
  match records with
  | [ r ] ->
    Alcotest.(check bool) "duration is wall clock (>= 2ms)" true
      (r.Epre_harness.Harness.duration_ms >= 2.0);
    Alcotest.(check bool) "duration sane (< 5s)" true
      (r.Epre_harness.Harness.duration_ms < 5000.0)
  | rs -> Alcotest.failf "expected one record, got %d" (List.length rs)

let test_stats_jsonl () =
  let prog =
    Helpers.compile "fn main(): int { var i: int; var s: int; for i = 1 to 9 { s = s + i * 3; } return s; }"
  in
  let stats = Epre.Pipeline.optimize ~level:Epre.Pipeline.Distribution prog in
  let lines = String.split_on_char '\n' (Epre.Pipeline.stats_jsonl stats) in
  Alcotest.(check int) "one line per routine" (List.length stats) (List.length lines);
  List.iter
    (fun line ->
      match Tjson.parse line with
      | Ok (Tjson.Obj fields) ->
        Alcotest.(check bool) "typed record" true
          (List.assoc_opt "type" fields = Some (Tjson.Str "routine_stats"));
        Alcotest.(check bool) "has routine" true
          (List.mem_assoc "routine" fields);
        Alcotest.(check bool) "has gvn sub-object" true
          (match List.assoc_opt "gvn" fields with
          | Some (Tjson.Obj _) -> true
          | _ -> false)
      | Ok _ | Error _ -> Alcotest.failf "bad stats JSONL line %S" line)
    lines

(* ------------------------------------------------------------------ *)
(* Profile rendering                                                   *)

let test_profile_render () =
  let spans, _ = trace_of_optimized_workload () in
  let rows = Profile.rows spans in
  Alcotest.(check bool) "a row per distinct stage" true
    (List.length rows
    = List.length (List.sort_uniq compare distribution_stages));
  let shares = List.fold_left (fun acc r -> acc +. r.Profile.share) 0.0 rows in
  Alcotest.(check bool) "shares sum to ~100" true (Float.abs (shares -. 100.0) < 0.5);
  let sorted_desc =
    let totals = List.map (fun r -> r.Profile.total_ms) rows in
    totals = List.sort (fun a b -> compare b a) totals
  in
  Alcotest.(check bool) "sorted by total desc" true sorted_desc;
  let text = Profile.render spans in
  List.iter
    (fun stage ->
      Alcotest.(check bool) ("mentions " ^ stage) true
        (Helpers.contains_substring ~needle:stage text))
    distribution_stages;
  (* Profiling an empty recording stays graceful. *)
  Alcotest.(check bool) "empty profile is a diagnostic" true
    (Helpers.contains_substring ~needle:"no spans" (Profile.render []))

let suite =
  [
    Alcotest.test_case "tjson round-trip" `Quick test_tjson_roundtrip;
    Alcotest.test_case "tjson rejects malformed input" `Quick test_tjson_rejects;
    Alcotest.test_case "tjson unicode escapes" `Quick test_tjson_unicode;
    tjson_escape_matches_reference;
    tjson_string_roundtrip;
    Alcotest.test_case "span nesting and caught exceptions" `Quick
      test_span_nesting_and_exceptions;
    Alcotest.test_case "escaping exception keeps balance" `Quick
      test_span_escaping_exception_balances;
    Alcotest.test_case "spans from two domains get a track each" `Quick
      test_spans_from_two_domains;
    Alcotest.test_case "disabled spans are no-ops" `Quick test_disabled_is_noop;
    Alcotest.test_case "a span feeds its histogram and the store once" `Quick
      test_span_feeds_histogram_once;
    Alcotest.test_case "chrome trace is well-formed" `Quick
      test_chrome_trace_wellformed;
    Alcotest.test_case "spans carry IR size deltas" `Quick test_ir_size_deltas;
    Alcotest.test_case "counters accumulate across routines" `Quick
      test_counters_accumulate;
    Alcotest.test_case "pipeline fills the counters registry" `Quick
      test_pipeline_fills_registry;
    Alcotest.test_case "harness durations are wall clock" `Quick
      test_harness_wall_clock;
    Alcotest.test_case "routine stats export as JSONL" `Quick test_stats_jsonl;
    Alcotest.test_case "profile summary renders" `Quick test_profile_render;
  ]
