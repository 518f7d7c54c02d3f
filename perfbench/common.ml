(* Shared plumbing of the benchmark: clock, sample statistics, process
   memory, the metric record every workload returns, and the per-stage
   accumulators the traced runs fill by wrapping the pipeline's named
   passes. *)

module Clock = Epre_telemetry.Telemetry.Clock
module Hist = Epre_telemetry.Histogram
module Harness = Epre_harness.Harness
module Pipeline = Epre.Pipeline

let now = Clock.now_ns

let ms_since t0 = Clock.elapsed_ms ~since:t0

let ns_between a b = Int64.to_float (Int64.sub b a)

(* ------------------------------------------------------------------ *)
(* Samples                                                             *)

(* A growable float sample (per-job latencies of a measured window). *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort Float.compare a;
  a

(* Exact percentile of the raw samples, with the definition the
   telemetry histograms use — never a bucket edge. *)
let percentile sorted p = Hist.percentile_of_sorted sorted p

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | l -> List.nth l (List.length l / 2)

(* ------------------------------------------------------------------ *)
(* Host and process                                                    *)

(* Peak resident set size of this process in MiB ([VmHWM]); 0 where
   /proc is unavailable. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* Host speed. The machine this runs on is shared, and its memory
   system slows by a third or more for seconds at a time when neighbours
   are busy; CPU time moves with wall time, so the slowdown is not
   descheduling. The serial compile workloads therefore scale every time
   they report to a reference host: it is multiplied by [probe_ref_ns]
   over the time the speed probe (probe.ml, a child process running fixed
   allocation-heavy work that uses no repository code) took, as the
   median of its last three readings, one taken after each job. On
   these workloads that cut the run-to-run spread of throughput from
   about 20% to 1-4%. serve-zipf is bound by file I/O and by scheduling
   three busy domains on the cores rather than by memory speed; scaling
   widened its spread, so its times are reported as measured. *)
let probe_ref_ns = 1e6

type probe = {
  to_probe : out_channel;
  from_probe : in_channel;
  mutable recent : float list;  (** last three readings, newest first *)
  mutable readings : float list;
}

let start_probe () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "probe.exe" in
  let from_probe, to_probe = Unix.open_process_args exe [| exe |] in
  { to_probe; from_probe; recent = []; readings = [] }

let stop_probe p = ignore (Unix.close_process (p.from_probe, p.to_probe))

let with_probe f =
  let p = start_probe () in
  Fun.protect ~finally:(fun () -> stop_probe p) (fun () -> f p)

(* Take a reading; returns the factor that scales a time measured now
   to the reference host. *)
let speed_factor p =
  output_char p.to_probe '\n';
  flush p.to_probe;
  let ns = float_of_string (input_line p.from_probe) in
  p.recent <- ns :: List.filteri (fun i _ -> i < 2) p.recent;
  p.readings <- ns :: p.readings;
  probe_ref_ns /. median p.recent

let probe_median_ms p = median p.readings /. 1e6

(* Fisher-Yates shuffle driven by the benchmark's seeded state. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Scratch space for the serve workload's cache and journal, inside the
   working directory and removed when the run ends. *)
let tmp_dir = ".perfbench_tmp"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let rec remove_tree path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-readable lines for stderr *)
}

(* ------------------------------------------------------------------ *)
(* Correctness oracle                                                  *)

(* What the oracle learns about one distinct optimized output: whether
   its observable behaviour matches the unoptimized input's, its dynamic
   and static ILOC operation counts, and the interpreter time spent. *)
type verdict = { same : bool; dyn : int; static : int; interp_ns : float }

(* Interpret [output] (re-parsed from its ILOC text, so the printer and
   parser are checked too) and compare it with [reference], the
   unoptimized input's observation. *)
let check_output ~reference output_text =
  match Epre_ir.Ir_text.parse_program output_text with
  | exception _ -> { same = false; dyn = 0; static = 0; interp_ns = 0.0 }
  | prog ->
    let t0 = now () in
    let obs, count =
      Harness.observe_counted ~fuel:Epre_interp.Interp.default_fuel prog
    in
    let interp_ns = ns_between t0 (now ()) in
    { same = Harness.obs_equal reference obs;
      dyn = Option.value count ~default:0;
      static = Epre_ir.Program.op_count prog;
      interp_ns }

let reference_obs prog =
  Harness.observe ~fuel:Epre_interp.Interp.default_fuel prog

(* The oracle's verdicts summed over the distinct outputs of a run.
   [bad_jobs] counts every attempt of a job whose output mismatched. *)
type oracle = { bad_jobs : int; dyn : int; static : int; interp_ns : float; runs : int }

let no_verdicts = { bad_jobs = 0; dyn = 0; static = 0; interp_ns = 0.0; runs = 0 }

let add_verdict (o : oracle) (v : verdict) ~attempts =
  { bad_jobs = (o.bad_jobs + if v.same then 0 else attempts);
    dyn = o.dyn + v.dyn; static = o.static + v.static;
    interp_ns = o.interp_ns +. v.interp_ns; runs = o.runs + 1 }

(* The end-to-end metrics every workload reports from its untimed run.
   [busy_s] is the scaled time the jobs were being served. *)
let end_to_end ~lat_ms ~attempted ~failed ~busy_s ~oracle ~rss ~setup_s =
  let lat = sorted lat_ms in
  [ m "jobs_per_s" "1/s" (float_of_int attempted /. busy_s);
    m "job_p50_ms" "ms" (percentile lat 0.50);
    m "job_p90_ms" "ms" (percentile lat 0.90);
    m "ok_frac" "ratio" (1.0 -. (float_of_int failed /. float_of_int attempted));
    m "dyn_ops" "count" (float_of_int oracle.dyn);
    m "static_ops" "count" (float_of_int oracle.static);
    m "peak_rss_mb" "MiB" rss;
    m "setup_s" "s" (median setup_s) ]

(* ------------------------------------------------------------------ *)
(* Per-stage accounting through [Pipeline.optimize_routine ~wrap]      *)

type stage_acc = {
  mutable ns : float;
  mutable words : float;  (** minor-heap words allocated *)
  mutable instrs_out : int;  (** instructions left after the stage *)
  mutable runs : int;
}

let stage_names =
  [ "naming"; "reassociation"; "gvn"; "pre"; "constprop"; "peephole"; "dce";
    "coalesce"; "clean" ]

type stages = (string, stage_acc) Hashtbl.t

let stages () : stages = Hashtbl.create 16

let stage_acc (t : stages) name =
  match Hashtbl.find_opt t name with
  | Some a -> a
  | None ->
    let a = { ns = 0.0; words = 0.0; instrs_out = 0; runs = 0 } in
    Hashtbl.replace t name a;
    a

let total_stage_ns (t : stages) = Hashtbl.fold (fun _ a acc -> acc +. a.ns) t 0.0

(* Time, allocation and output size of every application of every named
   pass. The instruction count is taken after the clock stops, so it is
   tracing overhead, not stage time. *)
let wrap_passes (t : stages) (passes : Harness.named_pass list) =
  List.map
    (fun (np : Harness.named_pass) ->
      let acc = stage_acc t np.Harness.pass_name in
      { np with
        Harness.run =
          (fun r ->
            let w0 = Gc.minor_words () in
            let t0 = now () in
            np.Harness.run r;
            let t1 = now () in
            acc.ns <- acc.ns +. ns_between t0 t1;
            acc.words <- acc.words +. (Gc.minor_words () -. w0);
            acc.runs <- acc.runs + 1;
            acc.instrs_out <- acc.instrs_out + Epre_ir.Routine.instr_count r) })
    passes

(* [pass.<stage>.{ms,alloc_mw,instrs_out}] for every stage of
   [Pipeline.level_passes]: time (scaled by [scale]) and allocation per
   job, output instructions per sweep of the suite. *)
let stage_metrics (t : stages) ~scale ~jobs ~sweeps =
  let per_job x = if jobs = 0 then 0.0 else x /. float_of_int jobs in
  List.concat_map
    (fun n ->
      let a = stage_acc t n in
      [ m (Printf.sprintf "pass.%s.ms" n) "ms" (scale *. per_job a.ns /. 1e6);
        m (Printf.sprintf "pass.%s.alloc_mw" n) "Mw" (per_job a.words /. 1e6);
        m (Printf.sprintf "pass.%s.instrs_out" n) "count"
          (if sweeps = 0 then 0.0
           else float_of_int a.instrs_out /. float_of_int sweeps) ])
    stage_names
