(* The [serve-zipf] workload: batches of JSONL compile jobs carrying
   inline ILOC of generated programs, with Zipf-distributed repeats,
   through [Service.serve] with the `eprec serve` defaults — result cache,
   job journal, circuit breakers, degradation ladder, and a pool of
   [Pool.default_jobs ()] domains — at the default level. Each batch
   starts from a fresh cache directory, removed after the batch. *)

open Common
module Service = Epre_service.Service
module Pool = Epre_service.Pool
module Cache = Epre_service.Cache
module Journal = Epre_service.Journal
module Breaker = Epre_service.Breaker
module Metrics = Epre_telemetry.Metrics
module J = Epre_telemetry.Tjson
module Ir_text = Epre_ir.Ir_text

(* Program pool and batch shape. Every program appears in every batch,
   so the set of distinct outputs — and with it the operation counts —
   does not depend on the seed; the seed draws the repeats and the
   order. With 14 jobs per program about 93% of cache lookups hit. *)
let distinct = 48

let batch_jobs = 14 * distinct

(* The programs [Epre_fuzz.Gen] makes from seeds 1..[distinct], lowered
   to ILOC text: the inputs the jobs carry. *)
let corpus () =
  Array.init distinct (fun i ->
      Ir_text.print_program
        (Epre_frontend.Frontend.compile_string (Epre_fuzz.Gen.source (i + 1))))

(* Zipf(1) over program ranks: rank [r] is program [r]. *)
let zipf_cdf =
  let cdf = Array.make distinct 0.0 in
  let sum = ref 0.0 in
  for i = 0 to distinct - 1 do
    sum := !sum +. (1.0 /. float_of_int (i + 1));
    cdf.(i) <- !sum
  done;
  Array.map (fun c -> c /. !sum) cdf

let draw rng =
  let u = Random.State.float rng 1.0 in
  let rec find lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if zipf_cdf.(mid) >= u then find lo mid else find (mid + 1) hi
  in
  find 0 (distinct - 1)

(* One batch: the program index of each job, in input order. *)
let batch rng =
  let a = Array.init batch_jobs (fun i -> if i < distinct then i else draw rng) in
  shuffle rng a;
  a

let write_jobs ~path ~corpus ~batch_no progs =
  let oc = open_out_bin path in
  Array.iteri
    (fun i p ->
      output_string oc
        (J.to_string
           (J.Obj
              [ ("id", J.Str (Printf.sprintf "b%d-j%d" batch_no i));
                ("iloc", J.Str corpus.(p)) ]));
      output_char oc '\n')
    progs;
  close_out oc

(* One decoded result line. *)
type line = { ok : bool; outcome : string; latency_ms : float; iloc : string option }

let read_results path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | s -> (
      match J.parse s with
      | Error _ -> go ({ ok = false; outcome = "undecodable"; latency_ms = 0.0; iloc = None } :: acc)
      | Ok j ->
        let num = function
          | Some (J.Float f) -> f
          | Some (J.Int i) -> float_of_int i
          | _ -> 0.0
        in
        go
          ({ ok = J.member "ok" j = Some (J.Bool true);
             outcome = (match J.member "outcome" j with Some (J.Str o) -> o | _ -> "");
             latency_ms = num (J.member "latency_ms" j);
             iloc = (match J.member "iloc" j with Some (J.Str t) -> Some t | _ -> None) }
          :: acc))
  in
  let lines = go [] in
  close_in ic;
  Array.of_list lines

(* Registry deltas across one traced batch. *)
let hist_delta before after name =
  let find l = List.assoc_opt name l in
  match (find before, find after) with
  | _, None -> (0, 0)
  | None, Some (a : Hist.merged) -> (a.Hist.count, a.Hist.sum)
  | Some (b : Hist.merged), Some a -> (a.Hist.count - b.Hist.count, a.Hist.sum - b.Hist.sum)

let counter name = Metrics.get ~routine:"<service>" ~name

(* Layer accounting of the traced batches. *)
type trace = {
  mutable hists : (string * int) list;  (** ["<name>#count"], ["<name>#sum"] *)
  mutable counters : (string * int) list;
  mutable busy_ns : float;  (** worker domains *)
  mutable helper_ns : float;  (** the submitting domain, helping *)
  mutable pool_ns : float;  (** wall time x worker domains *)
  mutable serve_ns : float;
  mutable parse_ns : float;
  mutable print_ns : float;
}

let new_trace () =
  { hists = []; counters = []; busy_ns = 0.0; helper_ns = 0.0; pool_ns = 0.0;
    serve_ns = 0.0; parse_ns = 0.0; print_ns = 0.0 }

let bump l k v = (k, v + Option.value (List.assoc_opt k l) ~default:0) :: List.remove_assoc k l

let traced_hists =
  List.map (fun s -> "pass." ^ s) stage_names
  @ [ "cache.read"; "cache.write"; "cache.lock_wait"; "pool.queue_wait"; "pool.idle";
      "queue.depth" ]

let traced_counters =
  [ "cache.hits"; "cache.misses"; "cache.stores"; "serve.retries"; "serve.degraded" ]

(* The measured state of a run. *)
type window = {
  lat_ms : samples;  (** per-job latencies, as each result line reports *)
  mutable attempted : int;
  mutable failed : int;  (** not ok, errored, timed out, shed, or inconsistent *)
  mutable batches : int;
  mutable serve_s : float;  (** wall time inside [Service.serve] *)
  outputs : string option array;
  attempts : int array;
}

let new_window () =
  { lat_ms = samples (); attempted = 0; failed = 0; batches = 0; serve_s = 0.0;
    outputs = Array.make distinct None;
    attempts = Array.make distinct 0 }

(* The service `eprec serve` sets up before its first job: the result
   cache, the job journal inside it, the circuit breakers and the pool. *)
type service = { cache : Cache.t; journal : Journal.t; breaker : Breaker.t; pool : Pool.t }

(* The cache directory and an empty journal file are created with the
   batch's directory, before set-up is timed: file creation on a shared
   disk swung set-up time by 20x between runs, and no change to the
   service moves it. *)
let prepare_dir dir =
  let cache_dir = Filename.concat dir "cache" in
  mkdir_p cache_dir;
  close_out (open_out (Filename.concat cache_dir "journal.jsonl"))

let open_service dir =
  let cache = Cache.create ~sweep_age_s:60.0 ~dir:(Filename.concat dir "cache") () in
  let journal =
    Journal.open_ ~mode:`Fresh ~path:(Filename.concat (Cache.dir cache) "journal.jsonl") ()
  in
  { cache; journal;
    breaker = Breaker.create ~threshold:3 ~probe_after:8 ();
    pool = Pool.create ~jobs:(Pool.default_jobs ()) () }

let close_service s =
  Pool.shutdown s.pool;
  Journal.close s.journal

(* Run one batch in [dir]: write its jobs, set up, serve, tear down, and
   account the results. *)
let run_batch ~probe ~w ~trace ~corpus ~dir ~batch_no progs =
  let jobs_path = Filename.concat dir "jobs.jsonl" in
  let results_path = Filename.concat dir "results.jsonl" in
  write_jobs ~path:jobs_path ~corpus ~batch_no progs;
  (match trace with
  | None -> ()
  | Some tr ->
    (* The ILOC layer re-measured on the batch's own inputs: the parse
       every job's load performs and the print its result needs. *)
    Array.iter
      (fun p ->
        let t0 = now () in
        let prog = Ir_text.parse_program corpus.(p) in
        let t1 = now () in
        ignore (Ir_text.print_program prog);
        tr.parse_ns <- tr.parse_ns +. ns_between t0 t1;
        tr.print_ns <- tr.print_ns +. ns_between t1 (now ()))
      progs);
  prepare_dir dir;
  let svc = open_service dir in
  let policy = { Service.Policy.default with Service.Policy.degrade = true } in
  let ic = open_in_bin jobs_path in
  let oc = open_out_bin results_path in
  let h0 = Hist.snapshot () and c0 = List.map (fun n -> (n, counter n)) traced_counters in
  let t0 = now () in
  let summary, wall =
    Fun.protect
      ~finally:(fun () ->
        close_in_noerr ic;
        close_out_noerr oc;
        close_service svc)
      (fun () ->
        let s =
          Service.serve ~cache:svc.cache ~policy ~journal:svc.journal ~breaker:svc.breaker
            ~pool:svc.pool ~input:ic ~output:oc ()
        in
        let wall = ns_between t0 (now ()) in
        (match trace with
        | None -> ()
        | Some tr ->
          let h1 = Hist.snapshot () in
          List.iter
            (fun n ->
              let c, s = hist_delta h0 h1 n in
              tr.hists <- bump (bump tr.hists (n ^ "#count") c) (n ^ "#sum") s)
            traced_hists;
          List.iter
            (fun (n, v0) -> tr.counters <- bump tr.counters n (counter n - v0))
            c0;
          let st = Pool.stats svc.pool in
          Array.iter (fun b -> tr.busy_ns <- tr.busy_ns +. Int64.to_float b) st.Pool.busy_ns;
          tr.helper_ns <- tr.helper_ns +. Int64.to_float st.Pool.helper_busy_ns;
          tr.pool_ns <- tr.pool_ns +. (wall *. float_of_int (Pool.size svc.pool));
          tr.serve_ns <- tr.serve_ns +. wall);
        (s, wall))
  in
  (* A reading for [host.probe_ms] only: serve-zipf times are reported as
     measured (see [Common.probe_ref_ns]). *)
  ignore (speed_factor probe);
  w.serve_s <- w.serve_s +. (wall /. 1e9);
  let lines = read_results results_path in
  w.batches <- w.batches + 1;
  w.attempted <- w.attempted + Array.length progs;
  if Array.length lines <> Array.length progs || summary.Service.jobs <> Array.length progs
  then w.failed <- w.failed + Array.length progs
  else
    Array.iteri
      (fun i p ->
        let l = lines.(i) in
        push w.lat_ms l.latency_ms;
        w.attempts.(p) <- w.attempts.(p) + 1;
        let served =
          l.ok && (l.outcome = "ok" || l.outcome = "retried_ok" || l.outcome = "degraded")
        in
        match (served, l.iloc, w.outputs.(p)) with
        | true, Some text, None -> w.outputs.(p) <- Some text
        | true, Some text, Some first when String.equal text first -> ()
        | _ -> w.failed <- w.failed + 1)
      progs

let tmp_root () = Filename.concat tmp_dir (Printf.sprintf "serve-%d" (Unix.getpid ()))

let in_fresh_dir name f =
  let dir = Filename.concat (tmp_root ()) name in
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

(* Set-up is timed [setup_reps] times when the run starts, before any
   batch, each time after a pause, so that it starts from an idle host as
   a fresh service does; the median is reported. Back-to-back samples
   caught the host's load at one instant, and their run medians varied
   2.3x; a batch's own set-up is not sampled either, because just after
   a batch (its pool shut down, its fsync'd files removed) set-up ran
   3-10x slower. *)
let setup_reps = 61

let sample_setup () =
  List.init setup_reps (fun i ->
      in_fresh_dir (Printf.sprintf "setup-%d" i) (fun dir ->
          prepare_dir dir;
          Unix.sleepf 0.05;
          let s0 = now () in
          let svc = open_service dir in
          let s = ms_since s0 /. 1000.0 in
          close_service svc;
          s))

(* Batches until [seconds] have passed, each in its own directory. *)
let run_window ~probe ~rng ~seconds ~corpus ~trace ~first_batch =
  let w = new_window () in
  let start = now () in
  while w.batches = 0 || ms_since start < seconds *. 1000.0 do
    let batch_no = first_batch + w.batches in
    let progs = batch rng in
    in_fresh_dir (Printf.sprintf "batch-%d" batch_no) (fun dir ->
        run_batch ~probe ~w ~trace ~corpus ~dir ~batch_no progs)
  done;
  w

let cleanup () =
  remove_tree (tmp_root ());
  try Sys.rmdir tmp_dir with Sys_error _ -> ()

(* Untimed oracle over the distinct outputs, as for the kernels. *)
let oracle ~corpus (w : window) =
  let o = ref no_verdicts in
  Array.iteri
    (fun p text ->
      match text with
      | None -> ()
      | Some text ->
        let reference = reference_obs (Ir_text.parse_program corpus.(p)) in
        o := add_verdict !o (check_output ~reference text) ~attempts:w.attempts.(p))
    w.outputs;
  !o

(* The probe, the generated inputs, the set-up samples and one warm-up
   batch, before anything is measured. *)
let prepare ~seed f =
  Fun.protect ~finally:cleanup @@ fun () ->
  with_probe @@ fun probe ->
  let rng = Random.State.make [| seed |] in
  let corpus = corpus () in
  let setup_s = sample_setup () in
  ignore (run_window ~probe ~rng ~seconds:0.0 ~corpus ~trace:None ~first_batch:0);
  f probe rng corpus setup_s

let measure ~seed ~seconds =
  prepare ~seed @@ fun probe rng corpus setup_s ->
  let w = run_window ~probe ~rng ~seconds ~corpus ~trace:None ~first_batch:1 in
  let rss = peak_rss_mb () in
  let o = oracle ~corpus w in
  let failed = w.failed + o.bad_jobs in
  { correct = failed = 0;
    attempted = w.attempted;
    failed;
    metrics =
      end_to_end ~lat_ms:w.lat_ms ~attempted:w.attempted ~failed ~busy_s:w.serve_s
        ~oracle:o ~rss ~setup_s;
    notes =
      [ Printf.sprintf "batches=%d jobs=%d; probe median %.3f ms" w.batches w.attempted
          (probe_median_ms probe) ] }

let measure_traced ~seed ~seconds =
  prepare ~seed @@ fun probe rng corpus _ ->
  let plain =
    run_window ~probe ~rng ~seconds:(seconds /. 2.0) ~corpus ~trace:None ~first_batch:1
  in
  let tr = new_trace () in
  let traced =
    run_window ~probe ~rng ~seconds:(seconds /. 2.0) ~corpus ~trace:(Some tr)
      ~first_batch:(1 + plain.batches)
  in
  let identical = plain.outputs = traced.outputs in
  let oracle_f = speed_factor probe in
  let o = oracle ~corpus traced in
  let jobs = float_of_int traced.attempted in
  let batches = float_of_int traced.batches in
  let h name = float_of_int (Option.value (List.assoc_opt name tr.hists) ~default:0) in
  let per_job_ms name = h (name ^ "#sum") /. 1e6 /. jobs in
  let c name = float_of_int (Option.value (List.assoc_opt name tr.counters) ~default:0) in
  let stages = stages () in
  List.iter (fun s -> (stage_acc stages s).ns <- h ("pass." ^ s ^ "#sum")) stage_names;
  let in_serve =
    total_stage_ns stages +. h "cache.read#sum" +. h "cache.write#sum"
    +. h "cache.lock_wait#sum"
  in
  let latency_sum = ref 0.0 in
  for i = 0 to traced.lat_ms.len - 1 do
    latency_sum := !latency_sum +. traced.lat_ms.data.(i)
  done;
  let plain_jps = float_of_int plain.attempted /. plain.serve_s in
  let traced_jps = jobs /. traced.serve_s in
  let layers =
    stage_metrics stages ~scale:1.0 ~jobs:traced.attempted ~sweeps:traced.batches
    @ [ m "ir.parse.ms" "ms" (tr.parse_ns /. 1e6 /. jobs);
        m "ir.print.ms" "ms" (tr.print_ns /. 1e6 /. jobs);
        m "interp.ms" "ms" (oracle_f *. o.interp_ns /. 1e6 /. float_of_int o.runs);
        m "interp.ops_per_us" "ops/us"
          (float_of_int o.dyn /. (oracle_f *. o.interp_ns /. 1e3));
        m "service.cache.read_ms" "ms" (per_job_ms "cache.read");
        m "service.cache.write_ms" "ms" (per_job_ms "cache.write");
        m "service.cache.lock_wait_ms" "ms" (per_job_ms "cache.lock_wait");
        m "service.cache.hit_rate" "ratio"
          (c "cache.hits" /. Float.max 1.0 (c "cache.hits" +. c "cache.misses"));
        m "service.cache.stores" "count" (c "cache.stores" /. batches);
        m "service.retries" "count" (c "serve.retries" /. batches);
        m "service.degraded" "count" (c "serve.degraded" /. batches);
        m "service.queue_depth" "count"
          (h "queue.depth#sum" /. Float.max 1.0 (h "queue.depth#count"));
        m "pool.queue_wait_ms" "ms" (per_job_ms "pool.queue_wait");
        m "pool.idle_ms" "ms" (per_job_ms "pool.idle");
        m "pool.busy_frac" "ratio" (tr.busy_ns /. Float.max 1.0 tr.pool_ns);
        m "pool.helper_busy_frac" "ratio" (tr.helper_ns /. Float.max 1.0 tr.serve_ns);
        m "trace.job_ms" "ms" (!latency_sum /. jobs);
        m "trace.attributed_frac" "ratio" (in_serve /. 1e6 /. !latency_sum);
        m "trace.overhead_frac" "ratio" (1.0 -. (traced_jps /. plain_jps));
        m "host.probe_ms" "ms" (probe_median_ms probe) ]
  in
  let failed = plain.failed + traced.failed + o.bad_jobs in
  { correct = failed = 0 && identical;
    attempted = plain.attempted + traced.attempted;
    failed;
    metrics = layers;
    notes =
      [ Printf.sprintf
          "untimed %.1f jobs/s, traced %.1f jobs/s, identical ILOC: %b; pool of %d \
           domain(s), and the submitting domain also runs tasks (busy %.0f%% of wall)"
          plain_jps traced_jps identical (Pool.default_jobs ())
          (100.0 *. tr.helper_ns /. Float.max 1.0 tr.serve_ns) ] }
