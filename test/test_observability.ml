(* The observability stack: histogram bucketing and merge determinism,
   the structured log's sinks and filtering, the span store's trace
   retention, the Prometheus-style exposition, and — the invariant
   everything else leans on — that none of it perturbs serve results. *)

module Hist = Epre_telemetry.Histogram
module Log = Epre_telemetry.Log
module Recorder = Epre_telemetry.Recorder
module Exposition = Epre_telemetry.Exposition
module Metrics = Epre_telemetry.Metrics
module Tjson = Epre_telemetry.Tjson
module Service = Epre_service.Service
module Pool = Epre_service.Pool
module Chaos = Epre_harness.Chaos
module Pipeline = Epre.Pipeline

let temp_dir tag =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "eprec-obs-%s-%d" tag (Unix.getpid ()))
  in
  let rec rm p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
        Sys.rmdir p
      end
      else Sys.remove p
  in
  rm d;
  Sys.mkdir d 0o755;
  d

(* ------------------------------------------------------------------ *)
(* Histogram: bucket scheme *)

let test_bucket_boundaries () =
  (* Probe values: the exact unit range, every power of two and its
     neighbours, and a deterministic pseudo-random spread. *)
  let probes = ref [] in
  for v = 0 to 64 do probes := v :: !probes done;
  for p = 3 to 61 do
    let b = 1 lsl p in
    probes := (b - 1) :: b :: (b + 1) :: !probes
  done;
  let st = ref 987654321 in
  for _ = 1 to 2000 do
    st := ((!st * 1103515245) + 12345) land max_int;
    probes := !st mod 1_000_000_000_000 :: !probes
  done;
  List.iter
    (fun v ->
      let i = Hist.bucket_of_value v in
      Alcotest.(check bool)
        (Printf.sprintf "index of %d in range" v)
        true
        (i >= 0 && i < Hist.num_buckets);
      let lo, hi = Hist.bucket_bounds i in
      if v < lo || v > hi then
        Alcotest.failf "value %d outside its bucket %d: [%d, %d]" v i lo hi;
      (* Relative error bound: bucket width <= 1/8 of its lower bound
         (unit buckets below 8). *)
      let width = hi - lo + 1 in
      if width > max 1 (lo / 8) then
        Alcotest.failf "bucket %d too wide: [%d, %d] width %d" i lo hi width)
    !probes;
  (* Monotone and gap-free: bucket i+1 starts right after bucket i
     ends. *)
  for i = 0 to Hist.num_buckets - 2 do
    let _, hi = Hist.bucket_bounds i in
    let lo', _ = Hist.bucket_bounds (i + 1) in
    Alcotest.(check int) (Printf.sprintf "bucket %d contiguous" i) (hi + 1) lo'
  done;
  (* Negatives clamp to bucket 0. *)
  Alcotest.(check int) "negative clamps" 0 (Hist.bucket_of_value (-17))

let test_merge_deterministic () =
  (* Four domains each record a known arithmetic progression into one
     histogram; the merged view must equal the serial single-domain
     recording of the same multiset, whatever the interleaving. *)
  let concurrent = Hist.create () in
  let values_of k = List.init 500 (fun i -> (i * 7) + (k * 131) + 1) in
  let domains =
    List.init 4 (fun k ->
        Domain.spawn (fun () ->
            List.iter (Hist.record concurrent) (values_of k)))
  in
  List.iter Domain.join domains;
  let serial = Hist.create () in
  List.iter (fun k -> List.iter (Hist.record serial) (values_of k))
    [ 0; 1; 2; 3 ];
  let mc = Hist.merged concurrent and ms = Hist.merged serial in
  Alcotest.(check int) "count" ms.Hist.count mc.Hist.count;
  Alcotest.(check int) "sum" ms.Hist.sum mc.Hist.sum;
  Alcotest.(check int) "max" ms.Hist.max_value mc.Hist.max_value;
  Alcotest.(check bool) "bucket counts" true (ms.Hist.counts = mc.Hist.counts);
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "q%.2f" q)
        (Hist.quantile ms q) (Hist.quantile mc q))
    [ 0.5; 0.9; 0.99; 1.0 ]

let test_quantile_accuracy () =
  (* Histogram quantiles land within one log-scale bucket (12.5%) of the
     exact order statistic, for a skewed sample. *)
  let st = ref 4242 in
  let sample =
    List.init 4096 (fun _ ->
        st := ((!st * 1103515245) + 12345) land max_int;
        (!st mod 997 * (!st mod 89)) + 1)
  in
  let h = Hist.create () in
  List.iter (Hist.record h) sample;
  let m = Hist.merged h in
  let sorted = Array.of_list (List.map float_of_int sample) in
  Array.sort compare sorted;
  List.iter
    (fun q ->
      let exact = Hist.percentile_of_sorted sorted q in
      let approx = float_of_int (Hist.quantile m q) in
      (* Upper bucket edge: never below the exact statistic, within
         12.5% above it. *)
      if approx < exact || approx > exact *. 1.125 +. 1.0 then
        Alcotest.failf "q%.2f: exact %.0f, histogram %.0f" q exact approx)
    [ 0.5; 0.9; 0.99 ];
  Alcotest.(check int) "q1 is the exact max" m.Hist.max_value
    (Hist.quantile m 1.0)

(* ------------------------------------------------------------------ *)
(* Span store *)

let test_disabled_recorder_is_noop () =
  Recorder.set_trace false;
  Recorder.note "obs.ignored";
  Alcotest.(check (list reject)) "empty snapshot" [] (Recorder.snapshot ())

let test_trace_keeps_every_span () =
  (* While a trace records, every span of every domain is kept, in
     recording order per domain; turning the trace off empties the
     store. *)
  Recorder.set_trace true;
  Fun.protect ~finally:(fun () -> Recorder.set_trace false) @@ fun () ->
  let work () =
    for i = 1 to 20 do
      Epre_telemetry.Telemetry.Span.with_ ~name:(Printf.sprintf "s%d" i) ignore
    done
  in
  let d = Domain.spawn work in
  work ();
  Domain.join d;
  let spans = Recorder.snapshot () in
  Alcotest.(check int) "every span kept" 40 (List.length spans);
  List.iter
    (fun domain ->
      Alcotest.(check (list string))
        (Printf.sprintf "domain %d in recording order" domain)
        (List.init 20 (fun i -> Printf.sprintf "s%d" (i + 1)))
        (List.filter_map
           (fun (e : Recorder.entry) ->
             if e.Recorder.domain = domain then Some e.Recorder.event else None)
           spans))
    [ (Domain.self () :> int); (Domain.get_id d :> int) ];
  Recorder.set_trace false;
  Alcotest.(check int) "trace off empties the store" 0
    (List.length (Recorder.snapshot ()))

let saxpy_iloc =
  lazy
    (Epre_ir.Ir_text.print_program
       (Epre_workloads.Workloads.compile
          (Option.get (Epre_workloads.Workloads.find "saxpy"))))

let test_with_corr_restores () =
  Alcotest.(check (option string)) "no ambient corr" None (Recorder.corr ());
  let inner =
    Recorder.with_corr "j-outer" (fun () ->
        Recorder.with_corr "j-inner" (fun () -> Recorder.corr ()))
  in
  Alcotest.(check (option string)) "nested corr" (Some "j-inner") inner;
  Alcotest.(check (option string)) "restored" None (Recorder.corr ())

(* ------------------------------------------------------------------ *)
(* Structured log *)

let test_log_level_filtering () =
  let buf = ref [] in
  Log.set_text_sink (fun line -> buf := line :: !buf);
  Log.set_stderr_level (Some Log.Warn);
  let restore () =
    Log.set_stderr_level None;
    Log.set_text_sink prerr_endline
  in
  Fun.protect ~finally:restore @@ fun () ->
  Log.debug ~event:"obs.a" "dropped";
  Log.info ~event:"obs.b" "dropped";
  Log.warn ~event:"obs.c" "kept";
  Log.error ~event:"obs.d" ~corr:"j9" ~fields:[ ("k", Tjson.Int 7) ] "kept";
  let lines = List.rev !buf in
  Alcotest.(check int) "only warn and above" 2 (List.length lines);
  let has needle line =
    let rec scan i =
      i + String.length needle <= String.length line
      && (String.sub line i (String.length needle) = needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "warn line" true (has "obs.c" (List.nth lines 0));
  let err = List.nth lines 1 in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("error line has " ^ needle) true (has needle err))
    [ "obs.d"; "j9"; "k=7"; "error" ]

let test_log_failed_open_keeps_sinks () =
  (* A file sink that cannot be opened raises, and leaves the log usable:
     the level filter can still be set and events still reach the text
     sink. *)
  let buf = ref [] in
  Log.set_text_sink (fun line -> buf := line :: !buf);
  let restore () =
    Log.set_stderr_level None;
    Log.set_text_sink prerr_endline
  in
  Fun.protect ~finally:restore @@ fun () ->
  (match Log.open_file "/nonexistent-dir/eprec/x.jsonl" with
  | () -> Alcotest.fail "open_file accepted an unwritable path"
  | exception Sys_error _ -> ());
  Log.set_stderr_level (Some Log.Warn);
  Log.warn ~event:"obs.after" "still logging";
  Alcotest.(check int) "event reached the text sink" 1 (List.length !buf)

let test_log_jsonl_sink () =
  let path = Filename.temp_file "eprec-obs" ".jsonl" in
  Log.open_file path;
  Log.info ~event:"obs.one" ~corr:"j1" "first";
  Log.debug ~event:"obs.two" ~fields:[ ("n", Tjson.Int 3) ] "second";
  Log.close_file ();
  let ic = open_in_bin path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in_noerr ic);
  Sys.remove path;
  let lines = List.rev !lines in
  (* Every level reaches the file sink, each line a JSON object with the
     event schema. *)
  Alcotest.(check int) "two lines" 2 (List.length lines);
  List.iter2
    (fun line (event, level) ->
      match Tjson.parse line with
      | Error m -> Alcotest.failf "bad JSONL line %S: %s" line m
      | Ok j ->
        let str f =
          match Tjson.member f j with Some (Tjson.Str s) -> Some s | _ -> None
        in
        Alcotest.(check (option string)) "event" (Some event) (str "event");
        Alcotest.(check (option string)) "level" (Some level) (str "level");
        Alcotest.(check bool) "ts_ns present" true
          (match Tjson.member "ts_ns" j with
          | Some (Tjson.Int _) -> true
          | _ -> false))
    lines
    [ ("obs.one", "info"); ("obs.two", "debug") ]

let test_log_rate_limit () =
  Metrics.reset_for_testing ();
  let buf = ref 0 in
  Log.set_text_sink (fun _ -> incr buf);
  Log.set_stderr_level (Some Log.Warn);
  let restore () =
    Log.set_stderr_level None;
    Log.set_text_sink prerr_endline
  in
  Fun.protect ~finally:restore @@ fun () ->
  for _ = 1 to 200 do
    Log.warn ~event:"obs.flood" "again"
  done;
  Alcotest.(check int) "sink capped at 50 per window" 50 !buf;
  Alcotest.(check int) "overflow counted" 150
    (Metrics.get ~routine:"<service>" ~name:"log.suppressed")

(* ------------------------------------------------------------------ *)
(* Exposition *)

let test_exposition_roundtrip () =
  Metrics.reset_for_testing ();
  Metrics.add ~routine:"<service>" ~name:"serve.ok" 42;
  List.iter (Hist.observe ~name:"obs.lat") [ 100; 200; 300; 400; 1000 ];
  let text = Exposition.render () in
  match Exposition.parse text with
  | Error m -> Alcotest.failf "exposition does not parse back: %s" m
  | Ok samples ->
    let find metric labels =
      List.find_opt
        (fun (s : Exposition.sample) ->
          s.Exposition.metric = metric
          && List.for_all
               (fun (k, v) -> List.assoc_opt k s.Exposition.labels = Some v)
               labels)
        samples
    in
    (match find "epre_counter" [ ("routine", "<service>"); ("name", "serve.ok") ] with
    | Some s -> Alcotest.(check (float 0.0)) "counter value" 42.0 s.Exposition.value
    | None -> Alcotest.fail "counter sample missing");
    (match find "epre_hist_ns_count" [ ("name", "obs.lat") ] with
    | Some s -> Alcotest.(check (float 0.0)) "hist count" 5.0 s.Exposition.value
    | None -> Alcotest.fail "histogram count sample missing");
    (match find "epre_hist_ns_max" [ ("name", "obs.lat") ] with
    | Some s -> Alcotest.(check (float 0.0)) "hist max" 1000.0 s.Exposition.value
    | None -> Alcotest.fail "histogram max sample missing");
    (* Quantile samples agree with the histogram registry itself. *)
    let m = Hist.merged (Hist.handle ~name:"obs.lat") in
    List.iter
      (fun (qs, q) ->
        match find "epre_hist_ns" [ ("name", "obs.lat"); ("quantile", qs) ] with
        | Some s ->
          Alcotest.(check (float 0.0))
            ("quantile " ^ qs)
            (float_of_int (Hist.quantile m q))
            s.Exposition.value
        | None -> Alcotest.fail ("quantile sample missing: " ^ qs))
      [ ("0.5", 0.5); ("0.9", 0.9); ("0.99", 0.99) ];
    (* Label escaping survives the round trip. *)
    Metrics.reset_for_testing ();
    Metrics.incr ~routine:"a\"b\\c" ~name:"weird\nname";
    (match Exposition.parse (Exposition.render ()) with
    | Error m -> Alcotest.failf "escaped exposition does not parse: %s" m
    | Ok samples ->
      Alcotest.(check bool) "escaped labels round-trip" true
        (List.exists
           (fun (s : Exposition.sample) ->
             List.assoc_opt "routine" s.Exposition.labels = Some "a\"b\\c"
             && List.assoc_opt "name" s.Exposition.labels = Some "weird\nname")
           samples));
    Metrics.reset_for_testing ()

(* ------------------------------------------------------------------ *)
(* Serve integration *)

let serve_batch ?chaos ?batch ?stats_every ?metrics_out ?(jobs = 8) () =
  let lines =
    List.init jobs (fun i ->
        Tjson.to_string
          (Tjson.Obj
             [ ("id", Tjson.Str (Printf.sprintf "job-%d" (i + 1)));
               ("level", Tjson.Str "partial");
               ("iloc", Tjson.Str (Lazy.force saxpy_iloc)) ]))
  in
  let in_path = Filename.temp_file "eprec-obs" ".jobs" in
  let out_path = Filename.temp_file "eprec-obs" ".out" in
  let oc = open_out_bin in_path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc;
  let ic = open_in_bin in_path and out = open_out_bin out_path in
  let summary =
    Pool.with_pool ~jobs:2 (fun pool ->
        Service.serve ?chaos ?batch ?stats_every ?metrics_out
          ~stats_sink:ignore ~pool ~input:ic ~output:out ())
  in
  close_in_noerr ic;
  close_out_noerr out;
  let ic = open_in_bin out_path in
  let results = ref [] in
  (try
     while true do
       results := input_line ic :: !results
     done
   with End_of_file -> close_in_noerr ic);
  Sys.remove in_path;
  Sys.remove out_path;
  (summary, List.rev !results)

let test_serve_events_carry_corr () =
  let path = Filename.temp_file "eprec-obs" ".jsonl" in
  Log.open_file path;
  let _, _ =
    serve_batch ~chaos:[ Chaos.Pass_poison ] ()
  in
  Log.close_file ();
  let ic = open_in_bin path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in_noerr ic);
  Sys.remove path;
  let prefixed p e =
    String.length e >= String.length p && String.sub e 0 (String.length p) = p
  in
  (* Every serve.* event, and every chaos.* event (a fault fires inside
     the job it strikes), carries that job's id. *)
  let job_events =
    List.filter_map
      (fun line ->
        match Tjson.parse line with
        | Error _ -> None
        | Ok j -> (
          match Tjson.member "event" j with
          | Some (Tjson.Str e) when prefixed "serve." e || prefixed "chaos." e ->
            Some (e, Tjson.member "corr" j)
          | _ -> None))
      (List.rev !lines)
  in
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ "* events were logged") true
        (List.exists (fun (e, _) -> prefixed p e) job_events))
    [ "serve."; "chaos." ];
  List.iter
    (fun (e, corr) ->
      match corr with
      | Some (Tjson.Str id) when prefixed "job-" id && id <> "job-" -> ()
      | _ -> Alcotest.failf "event %S lacks a job correlation id" e)
    job_events

let test_serve_byte_identity_with_sinks () =
  (* The acceptance invariant: the result stream is identical whether
     every sink is enabled or all observability is off. latency_ms is
     wall-clock noise, so compare the deterministic view. *)
  let view lines =
    List.map
      (fun line ->
        match Tjson.parse line with
        | Error m -> Alcotest.failf "bad result line: %s" m
        | Ok j ->
          List.map (fun f -> (f, Tjson.member f j))
            [ "id"; "ok"; "outcome"; "attempts"; "hits"; "misses"; "iloc" ])
      lines
  in
  let _, bare = serve_batch ~chaos:[ Chaos.Pass_poison ] () in
  let log_path = Filename.temp_file "eprec-obs" ".jsonl" in
  let metrics_path = Filename.temp_file "eprec-obs" ".prom" in
  Log.open_file log_path;
  Recorder.set_trace true;
  let observed =
    Fun.protect
      ~finally:(fun () ->
        Log.close_file ();
        Recorder.set_trace false)
      (fun () -> snd (serve_batch ~chaos:[ Chaos.Pass_poison ] ()))
  in
  Epre_telemetry.Exposition.write ~path:metrics_path;
  Sys.remove log_path;
  Sys.remove metrics_path;
  Alcotest.(check bool) "same job count" true
    (List.length bare = List.length observed);
  Alcotest.(check bool) "deterministic view identical" true
    (view bare = view observed)

let test_serve_stats_line () =
  let stats_lines = ref [] in
  let lines =
    List.init 6 (fun i ->
        Tjson.to_string
          (Tjson.Obj
             [ ("id", Tjson.Str (Printf.sprintf "job-%d" (i + 1)));
               ("iloc", Tjson.Str (Lazy.force saxpy_iloc)) ]))
  in
  let in_path = Filename.temp_file "eprec-obs" ".jobs" in
  let oc = open_out_bin in_path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc;
  let metrics_path = Filename.temp_file "eprec-obs" ".prom" in
  let ic = open_in_bin in_path in
  let out = open_out_bin (Filename.concat (Filename.get_temp_dir_name ()) "eprec-obs-stats.out") in
  let summary =
    Pool.with_pool ~jobs:2 (fun pool ->
        Service.serve ~stats_every:2 ~metrics_out:metrics_path
          ~stats_sink:(fun l -> stats_lines := l :: !stats_lines)
          ~pool ~input:ic ~output:out ())
  in
  close_in_noerr ic;
  close_out_noerr out;
  Sys.remove in_path;
  Alcotest.(check int) "all jobs served" 6 summary.Service.jobs;
  Alcotest.(check bool) "stats lines emitted" true (!stats_lines <> []);
  List.iter
    (fun line ->
      Alcotest.(check bool) "stats line shape" true
        (String.length line > 6 && String.sub line 0 6 = "stats:"))
    !stats_lines;
  (* The exposition landed and parses. *)
  let ic = open_in_bin metrics_path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove metrics_path;
  (match Exposition.parse text with
  | Error m -> Alcotest.failf "metrics-out does not parse: %s" m
  | Ok samples ->
    Alcotest.(check bool) "serve.job histogram exposed" true
      (List.exists
         (fun (s : Exposition.sample) ->
           s.Exposition.metric = "epre_hist_ns"
           && List.assoc_opt "name" s.Exposition.labels = Some "serve.job")
         samples))

let test_serve_survives_failed_metrics_write () =
  (* A metrics file that cannot be written (a directory squats on its
     temp path) is counted, never raised: serving goes on to the end of
     the input. *)
  Metrics.reset_for_testing ();
  let path = Filename.concat (temp_dir "metrics-out") "m.prom" in
  Sys.mkdir (path ^ ".tmp") 0o755;
  let summary, results =
    serve_batch ~batch:1 ~stats_every:1 ~metrics_out:path ~jobs:2 ()
  in
  Alcotest.(check int) "every job served" 2 summary.Service.jobs;
  Alcotest.(check int) "every result emitted" 2 (List.length results);
  Alcotest.(check bool) "failed writes counted" true
    (Metrics.get ~routine:"<service>" ~name:"metrics.write_failed" >= 2);
  Alcotest.(check bool) "no exposition written" false (Sys.file_exists path);
  Metrics.reset_for_testing ()

let suite =
  [ Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
    Alcotest.test_case "multi-domain merge is deterministic" `Quick
      test_merge_deterministic;
    Alcotest.test_case "quantiles within bucket resolution" `Quick
      test_quantile_accuracy;
    Alcotest.test_case "disabled recorder is a no-op" `Quick
      test_disabled_recorder_is_noop;
    Alcotest.test_case "trace keeps every span" `Quick
      test_trace_keeps_every_span;
    Alcotest.test_case "with_corr nests and restores" `Quick
      test_with_corr_restores;
    Alcotest.test_case "stderr level filtering" `Quick test_log_level_filtering;
    Alcotest.test_case "JSONL sink records every level" `Quick
      test_log_jsonl_sink;
    Alcotest.test_case "failed open_file leaves the log usable" `Quick
      test_log_failed_open_keeps_sinks;
    Alcotest.test_case "warn flood is rate-limited" `Quick test_log_rate_limit;
    Alcotest.test_case "exposition round-trips" `Quick test_exposition_roundtrip;
    Alcotest.test_case "serve events carry correlation ids" `Quick
      test_serve_events_carry_corr;
    Alcotest.test_case "results identical with sinks on" `Quick
      test_serve_byte_identity_with_sinks;
    Alcotest.test_case "stats line and metrics-out" `Quick
      test_serve_stats_line;
    Alcotest.test_case "failed metrics-out write keeps serving" `Quick
      test_serve_survives_failed_metrics_write ]
