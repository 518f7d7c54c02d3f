(* The [kernels] and [kernels-exec] workloads: every paper kernel at every
   optimization level, one serial compile job per (kernel, level), in a
   seed-shuffled order. A job is what `eprec compile` runs: the frontend,
   the level's pipeline, and the ILOC printer. [kernels-exec] supervises
   the pipeline at the exec validation tier with [keep_going], as
   `eprec compile --safe --validate exec` does. *)

open Common
module Frontend = Epre_frontend.Frontend
module Workloads = Epre_workloads.Workloads
module Ir_text = Epre_ir.Ir_text

type mode = Bare | Exec

type job = { idx : int; kernel : Workloads.t; level : Pipeline.level }

let exec_config =
  { Harness.validation = Harness.Exec; fuel = Epre_interp.Interp.default_fuel;
    keep_going = true; audit = false }

(* The suite in a fixed order; [idx] names a (kernel, level) pair. *)
let suite () =
  Workloads.all
  |> List.concat_map (fun w -> List.map (fun l -> (w, l)) Pipeline.all_levels)
  |> List.mapi (fun idx (kernel, level) -> { idx; kernel; level })
  |> Array.of_list

(* A job's outcome: optimized ILOC text, per-routine stats (empty when the
   traced exec path runs the harness directly) and rollback count. *)
type outcome = { text : string; stats : Pipeline.routine_stats list; rollbacks : int }

let run_job mode job =
  let prog = Frontend.compile_string job.kernel.Workloads.source in
  let stats, rollbacks =
    match mode with
    | Bare -> (Pipeline.optimize ~level:job.level prog, 0)
    | Exec ->
      let stats, records =
        Pipeline.optimize_supervised ~config:exec_config ~level:job.level prog
      in
      (stats, List.length (Harness.rolled_back records))
  in
  { text = Ir_text.print_program prog; stats; rollbacks }

(* Layer accounting of a traced window. *)
type trace = {
  stages : stages;
  mutable frontend_ns : float;
  mutable frontend_words : float;
  mutable print_ns : float;
  mutable harness_ns : float;  (** supervise time outside the wrapped passes *)
  mutable job_ns : float;
}

let new_trace () =
  { stages = stages (); frontend_ns = 0.0; frontend_words = 0.0; print_ns = 0.0;
    harness_ns = 0.0; job_ns = 0.0 }

(* The same job with a clock around each layer. The bare path goes
   through [Pipeline.optimize_routine ~wrap], routine by routine, exactly
   as [Pipeline.optimize] does; the exec path hands the wrapped
   [Pipeline.level_passes] to [Harness.supervise], exactly as
   [Pipeline.optimize_supervised] does. *)
let run_job_traced tr mode job =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let prog = Frontend.compile_string job.kernel.Workloads.source in
  let t1 = now () in
  tr.frontend_words <- tr.frontend_words +. (Gc.minor_words () -. w0);
  let passes_before = total_stage_ns tr.stages in
  let stats, rollbacks =
    match mode with
    | Bare ->
      ( List.map
          (Pipeline.optimize_routine ~wrap:(wrap_passes tr.stages) ~level:job.level)
          (Epre_ir.Program.routines prog),
        0 )
    | Exec ->
      let passes = wrap_passes tr.stages (Pipeline.level_passes ~level:job.level) in
      let records = Harness.supervise exec_config ~passes prog in
      ([], List.length (Harness.rolled_back records))
  in
  let t2 = now () in
  if mode = Exec then
    tr.harness_ns <-
      tr.harness_ns +. ns_between t1 t2 -. (total_stage_ns tr.stages -. passes_before);
  let text = Ir_text.print_program prog in
  let t3 = now () in
  tr.frontend_ns <- tr.frontend_ns +. ns_between t0 t1;
  tr.print_ns <- tr.print_ns +. ns_between t2 t3;
  tr.job_ns <- tr.job_ns +. ns_between t0 t3;
  { text; stats; rollbacks }

(* One measured window: whole seed-shuffled sweeps of the suite until
   [seconds] have passed, so every window holds the same job mix. A probe
   reading follows every job, so the median of the last three readings
   that scales the job's time is centred on it. *)
type window = {
  lat_ms : samples;  (** scaled per-job latencies *)
  mutable attempted : int;
  mutable failed : int;  (** raised, or differed from the job's first output *)
  mutable sweeps : int;
  mutable job_s : float;  (** scaled time inside jobs *)
  mutable raw_job_s : float;  (** the same, as measured *)
  mutable setup_s : float list;
  mutable pre_rounds : int;
  mutable rollbacks : int;
  outputs : string option array;  (** first output of each job *)
  attempts : int array;
}

(* Set-up is building a sweep's seed-shuffled job list. A sample times
   [setup_batch] builds, on copies of the seed state; the median of
   [setup_reps] samples is reported. *)
let setup_reps = 31

let setup_batch = 100

let run_window ~probe ~rng ~seconds run =
  let n = Array.length (suite ()) in
  let w =
    { lat_ms = samples (); attempted = 0; failed = 0; sweeps = 0; job_s = 0.0;
      raw_job_s = 0.0; setup_s = []; pre_rounds = 0; rollbacks = 0;
      outputs = Array.make n None; attempts = Array.make n 0 }
  in
  ignore (speed_factor probe);
  for _ = 1 to setup_reps do
    let s0 = now () in
    for _ = 1 to setup_batch do
      shuffle (Random.State.copy rng) (suite ())
    done;
    let ms = ms_since s0 /. float_of_int setup_batch in
    w.setup_s <- (speed_factor probe *. ms /. 1000.0) :: w.setup_s
  done;
  let start = now () in
  while w.sweeps = 0 || ms_since start < seconds *. 1000.0 do
    let order = suite () in
    shuffle rng order;
    Array.iter
      (fun job ->
        let t0 = now () in
        let r = try Some (run job) with _ -> None in
        let ms = ms_since t0 in
        let f = speed_factor probe in
        push w.lat_ms (f *. ms);
        w.job_s <- w.job_s +. (f *. ms /. 1000.0);
        w.raw_job_s <- w.raw_job_s +. (ms /. 1000.0);
        w.attempted <- w.attempted + 1;
        w.attempts.(job.idx) <- w.attempts.(job.idx) + 1;
        match r with
        | None -> w.failed <- w.failed + 1
        | Some o ->
          List.iter
            (fun (s : Pipeline.routine_stats) ->
              match s.Pipeline.pre with
              | Some p -> w.pre_rounds <- w.pre_rounds + p.Epre_pre.Pre.rounds
              | None -> ())
            o.stats;
          w.rollbacks <- w.rollbacks + o.rollbacks;
          (match w.outputs.(job.idx) with
          | None -> w.outputs.(job.idx) <- Some o.text
          | Some first -> if not (String.equal first o.text) then w.failed <- w.failed + 1))
      order;
    w.sweeps <- w.sweeps + 1
  done;
  w

(* Untimed oracle over the distinct outputs: each is re-parsed,
   interpreted and compared with its unoptimized input. *)
let oracle (w : window) =
  let refs = Hashtbl.create 64 in
  let reference (k : Workloads.t) =
    match Hashtbl.find_opt refs k.Workloads.name with
    | Some r -> r
    | None ->
      let r = reference_obs (Frontend.compile_string k.Workloads.source) in
      Hashtbl.replace refs k.Workloads.name r;
      r
  in
  Array.fold_left
    (fun o job ->
      match w.outputs.(job.idx) with
      | None -> o
      | Some text ->
        add_verdict o
          (check_output ~reference:(reference job.kernel) text)
          ~attempts:w.attempts.(job.idx))
    no_verdicts (suite ())

(* Warm-up: lazy initialisation and heap growth happen before timing. *)
let warm_up mode rng =
  let warm = suite () in
  shuffle rng warm;
  Array.iteri (fun i job -> if i < 20 then ignore (run_job mode job)) warm

let measure mode ~seed ~seconds =
  with_probe @@ fun probe ->
  let rng = Random.State.make [| seed |] in
  warm_up mode rng;
  let w = run_window ~probe ~rng ~seconds (run_job mode) in
  let rss = peak_rss_mb () in
  let o = oracle w in
  let failed = w.failed + o.bad_jobs in
  { correct = failed = 0;
    attempted = w.attempted;
    failed;
    metrics =
      end_to_end ~lat_ms:w.lat_ms ~attempted:w.attempted ~failed ~busy_s:w.job_s
        ~oracle:o ~rss ~setup_s:w.setup_s;
    notes =
      [ Printf.sprintf
          "sweeps=%d jobs=%d distinct_outputs=%d rollbacks=%d; as measured %.1f jobs/s, \
           probe median %.3f ms"
          w.sweeps w.attempted o.runs w.rollbacks
          (float_of_int w.attempted /. w.raw_job_s)
          (probe_median_ms probe) ] }

(* The traced run: half the time untimed, half traced, over the same
   seed. Both must print byte-identical ILOC for every job. Layer times
   are scaled by the traced window's mean speed factor. *)
let measure_traced mode ~seed ~seconds =
  with_probe @@ fun probe ->
  let rng = Random.State.make [| seed |] in
  warm_up mode rng;
  let plain = run_window ~probe ~rng ~seconds:(seconds /. 2.0) (run_job mode) in
  let tr = new_trace () in
  let traced = run_window ~probe ~rng ~seconds:(seconds /. 2.0) (run_job_traced tr mode) in
  let identical = plain.outputs = traced.outputs in
  let oracle_f = speed_factor probe in
  let o = oracle traced in
  let scale = traced.job_s /. traced.raw_job_s in
  let jobs = float_of_int traced.attempted in
  let per_job ns = scale *. ns /. 1e6 /. jobs in
  let plain_jps = float_of_int plain.attempted /. plain.job_s in
  let traced_jps = jobs /. traced.job_s in
  let pre_runs = (stage_acc tr.stages "pre").runs / traced.sweeps in
  (* Rounds per sweep come from the stats the untimed window returned
     (the traced exec path supervises without collecting them). Every
     PRE run ends with one confirming round that changes nothing. *)
  let pre_rounds = float_of_int plain.pre_rounds /. float_of_int plain.sweeps in
  let named =
    tr.frontend_ns +. total_stage_ns tr.stages +. tr.harness_ns +. tr.print_ns
  in
  let layers =
    stage_metrics tr.stages ~scale ~jobs:traced.attempted ~sweeps:traced.sweeps
    @ [ m "pre.rounds" "count" pre_rounds;
        m "pre.useful_round_frac" "ratio"
          (if pre_rounds = 0.0 then 0.0
           else (pre_rounds -. float_of_int pre_runs) /. pre_rounds);
        m "frontend.ms" "ms" (per_job tr.frontend_ns);
        m "frontend.alloc_mw" "Mw" (tr.frontend_words /. 1e6 /. jobs);
        m "ir.print.ms" "ms" (per_job tr.print_ns);
        m "harness.ms" "ms" (per_job tr.harness_ns);
        m "harness.rollbacks" "count" (float_of_int traced.rollbacks);
        m "interp.ms" "ms" (oracle_f *. o.interp_ns /. 1e6 /. float_of_int o.runs);
        m "interp.ops_per_us" "ops/us"
          (float_of_int o.dyn /. (oracle_f *. o.interp_ns /. 1e3));
        m "trace.job_ms" "ms" (per_job tr.job_ns);
        m "trace.attributed_frac" "ratio" (named /. tr.job_ns);
        m "trace.overhead_frac" "ratio" (1.0 -. (traced_jps /. plain_jps));
        m "host.probe_ms" "ms" (probe_median_ms probe) ]
  in
  let failed = plain.failed + traced.failed + o.bad_jobs in
  { correct = failed = 0 && identical;
    attempted = plain.attempted + traced.attempted;
    failed;
    metrics = layers;
    notes =
      [ Printf.sprintf "untimed %.1f jobs/s, traced %.1f jobs/s, identical ILOC: %b"
          plain_jps traced_jps identical ] }
