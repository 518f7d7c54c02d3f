(** The compile service. See the interface for the protocol; the
    correctness argument for each cached/fault path is inline. *)

open Epre_ir
module J = Epre_telemetry.Tjson
module Harness = Epre_harness.Harness
module Chaos = Epre_harness.Chaos
module Pipeline = Epre.Pipeline
module Clock = Epre_telemetry.Telemetry.Clock
module Hist = Epre_telemetry.Histogram
module Log = Epre_telemetry.Log
module Recorder = Epre_telemetry.Recorder

let metrics_routine = "<service>"

let count name = Epre_telemetry.Metrics.incr ~routine:metrics_routine ~name

type counts = { hits : int; misses : int }

let no_traffic = { hits = 0; misses = 0 }

let add_counts a b = { hits = a.hits + b.hits; misses = a.misses + b.misses }

(* Optimize one routine through the cache. The cache key is the digest of
   the routine's canonical pre-optimization text plus the level
   fingerprint; because [Ir_text] round-trips exactly, restoring a hit's
   stored text is byte-identical to recompiling. *)
let optimize_routine_cached ?cache ?poll ?wrap ~level ~fingerprint
    (r : Routine.t) =
  match cache with
  | None ->
    (Pipeline.optimize_routine ?poll ?wrap ~level r, { hits = 0; misses = 1 })
  | Some c -> (
    let before = Ir_text.routine_to_string r in
    let k = Cache.key ~iloc:before ~fingerprint in
    match Cache.find c ~key:k with
    | Some (cached, _iloc, stats) when cached.Routine.name = r.Routine.name ->
      Routine.restore r ~from:cached;
      (* A recompile would have bumped the metrics registry; replay the
         stored statistics so cached and cold runs report identically. *)
      Pipeline.record_metrics stats;
      (stats, { hits = 1; misses = 0 })
    | Some _ | None ->
      let stats = Pipeline.optimize_routine ?poll ?wrap ~level r in
      let after = Ir_text.routine_to_string r in
      Cache.store c ~key:k ~fingerprint ~iloc:after ~stats;
      (stats, { hits = 0; misses = 1 }))

let optimize_program ?cache ?(poll = fun () -> ()) ?wrap ?fingerprint ~level
    (p : Program.t) =
  (* A caller that transforms the pass list ([wrap]) must supply the
     matching fingerprint, or cached results from the standard pipeline
     would replay against a different transformation. *)
  let fingerprint =
    match fingerprint with
    | Some f -> f
    | None -> Pipeline.fingerprint ~level
  in
  let results =
    List.map
      (fun r ->
        poll ();
        optimize_routine_cached ?cache ~poll ?wrap ~level ~fingerprint r)
      (Program.routines p)
  in
  ( List.map fst results,
    List.fold_left (fun acc (_, c) -> add_counts acc c) no_traffic results )

(* ------------------------------------------------------------------ *)
(* Failure policy *)

module Policy = struct
  type t = {
    timeout_ms : float option;
    retries : int;
    backoff_ms : float;
    degrade : bool;
  }

  let default =
    { timeout_ms = None; retries = 0; backoff_ms = 50.0; degrade = false }

  exception Deadline_exceeded

  (* Transient failures are worth a retry: injected chaos (the stand-in
     for infrastructure flakiness) and OS-level I/O errors. Everything
     else — pass exceptions, validation failures, malformed inputs — is
     deterministic: a retry would replay the same bug, so it is
     permanent. Deadlines are terminal too: a retry would burn the same
     budget on the same work. *)
  let classify = function
    | Chaos.Injected _ -> `Transient
    | Unix.Unix_error _ -> `Transient
    | Sys_error _ -> `Transient
    | _ -> `Permanent

  (* Exponential backoff with deterministic jitter in [0.5, 1.0): a
     replayable delay schedule, but jobs retrying in lockstep still
     spread out. Returns seconds. *)
  let backoff_delay t ~id ~attempt =
    let h = Hashtbl.hash (id, attempt, "backoff") in
    let jitter = 0.5 +. (float_of_int (h mod 1000) /. 2000.0) in
    t.backoff_ms *. float_of_int (1 lsl min (attempt - 1) 6) *. jitter /. 1000.0

  type decision = Retry_after of float | Descend of Pipeline.level | Stop

  (* The attempt planner. Transient failures retry at the same rung while
     the budget lasts. Bad input stops: no optimization level can fix it.
     Every other terminal failure (permanent, exhausted retries, deadline)
     descends one rung when [degrade] allows and a lower rung exists. *)
  let plan t ~id ~rung ~attempt = function
    | `Transient when attempt <= t.retries ->
      Retry_after (backoff_delay t ~id ~attempt)
    | `Bad_input -> Stop
    | `Transient | `Permanent | `Deadline -> (
      match Pipeline.lower rung with
      | Some next when t.degrade -> Descend next
      | _ -> Stop)
end

(* ------------------------------------------------------------------ *)
(* Serve protocol *)

type job_input =
  | File of string
  | Workload of string
  | Source of string
  | Iloc of string

type job = {
  id : string;
  level : Pipeline.level;
  input : job_input;
  emit : bool;
}

let job_of_line ~default_id line =
  match J.parse line with
  | Error m -> Error ("malformed job line: " ^ m)
  | Ok j -> (
    let str f = match J.member f j with Some (J.Str s) -> Some s | _ -> None in
    let id = Option.value (str "id") ~default:default_id in
    let level =
      match J.member "level" j with
      | None -> Ok Pipeline.Partial
      | Some (J.Str s) -> (
        match Pipeline.level_of_string s with
        | Some l -> Ok l
        | None -> Error (Printf.sprintf "unknown level %S" s))
      | Some _ -> Error "field \"level\" must be a string"
    in
    match level with
    | Error m -> Error m
    | Ok level -> (
      let inputs =
        List.filter_map
          (fun (f, mk) -> Option.map mk (str f))
          [ ("file", fun s -> File s);
            ("workload", fun s -> Workload s);
            ("source", fun s -> Source s);
            ("iloc", fun s -> Iloc s) ]
      in
      match inputs with
      | [ input ] ->
        let emit =
          match J.member "emit" j with Some (J.Bool b) -> b | _ -> true
        in
        Ok { id; level; input; emit }
      | [] -> Error "job needs one of \"file\", \"workload\", \"source\", \"iloc\""
      | _ :: _ :: _ -> Error "job has more than one program input"))

type job_outcome = Succeeded | Failed | Timed_out | Retried | Degraded | Shed

let job_outcome_to_string = function
  | Succeeded -> "ok"
  | Failed -> "error"
  | Timed_out -> "timeout"
  | Retried -> "retried_ok"
  | Degraded -> "degraded"
  | Shed -> "shed"

type result_line = {
  job_id : string;
  ok : bool;
  outcome : job_outcome;
  attempts : int;
  job_level : Pipeline.level;
  requested : Pipeline.level option;
  excised : string list;
  routines : int;
  job_counts : counts;
  latency_ms : float;
  iloc : string option;
  line : int option;
  error : string option;
}

let result_to_json r =
  J.Obj
    ([ ("type", J.Str "result");
       ("id", J.Str r.job_id);
       ("ok", J.Bool r.ok);
       ("outcome", J.Str (job_outcome_to_string r.outcome));
       ("attempts", J.Int r.attempts);
       ("level", J.Str (Pipeline.level_to_string r.job_level)) ]
    @ (match r.requested with
      | Some l -> [ ("requested", J.Str (Pipeline.level_to_string l)) ]
      | None -> [])
    @ (match r.excised with
      | [] -> []
      | ps -> [ ("excised", J.Arr (List.map (fun p -> J.Str p) ps)) ])
    @ [ ("routines", J.Int r.routines);
        ("hits", J.Int r.job_counts.hits);
        ("misses", J.Int r.job_counts.misses);
        ("latency_ms", J.Float r.latency_ms) ]
    @ (match r.line with Some n -> [ ("line", J.Int n) ] | None -> [])
    @ (match r.iloc with Some s -> [ ("iloc", J.Str s) ] | None -> [])
    @ match r.error with Some m -> [ ("error", J.Str m) ] | None -> [])

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_program = function
  | File path -> (
    match read_file path with
    | text -> (
      try Ok (Epre_frontend.Frontend.compile_string text) with
      | Epre_frontend.Frontend.Error { line; message } ->
        Error (Printf.sprintf "%s:%d: %s" path line message))
    | exception Sys_error m -> Error m)
  | Workload name -> (
    match Epre_workloads.Workloads.find name with
    | Some w -> Ok (Epre_workloads.Workloads.compile w)
    | None -> Error (Printf.sprintf "unknown workload %S" name))
  | Source text -> (
    try Ok (Epre_frontend.Frontend.compile_string text) with
    | Epre_frontend.Frontend.Error { line; message } ->
      Error (Printf.sprintf "line %d: %s" line message))
  | Iloc text -> (
    try Ok (Ir_text.parse_program text) with
    | e -> Error ("ILOC parse failed: " ^ Printexc.to_string e))

let error_result ?(outcome = Failed) ?(attempts = 1) ?line ~id ~level msg =
  { job_id = id; ok = false; outcome; attempts; job_level = level;
    requested = None; excised = []; routines = 0; job_counts = no_traffic;
    latency_ms = 0.0; iloc = None; line; error = Some msg }

(* Sleep [ms] in short slices, calling [poll] between slices, so the
   chaos:slow-job stall stays cancellable by the per-job deadline. *)
let sliced_sleep ~poll ms =
  let slice = 2.0 in
  let rec go remaining =
    poll ();
    if remaining > 0.0 then begin
      Unix.sleepf (Float.min slice remaining /. 1000.0);
      go (remaining -. slice)
    end
  in
  go ms

(* Passes [chaos:pass-poison] may break: present at some level above
   Baseline but absent from Baseline itself, so the degradation floor
   always survives a poisoned pass. *)
let poison_candidates =
  lazy
    (let baseline = Pipeline.level_stages ~level:Pipeline.Baseline in
     List.sort_uniq compare
       (List.filter
          (fun s -> not (List.mem s baseline))
          (Pipeline.level_stages ~level:Pipeline.Partial
          @ Pipeline.level_stages ~level:Pipeline.Distribution)))

let poisoned_pass ?seed () =
  Chaos.poison_target ?seed ~candidates:(Lazy.force poison_candidates) ()

(* A service fault fires: count it, log it, and capture the flight
   recorder. *)
let fire ?corr fault =
  let name = Chaos.service_name fault in
  (* chaos:worker-raise counts as chaos.worker_raise. *)
  count (String.map (function ':' -> '.' | '-' -> '_' | c -> c) name);
  Log.warn ~event:"chaos.fire" ~fields:[ ("fault", J.Str name) ] ("injected " ^ name);
  ignore (Recorder.dump ~reason:name ?corr ())

(* The (level, excised passes) that serve [rung], given the passes whose
   breakers are open. Prefer the highest standard level at or below the
   rung whose sequence avoids every opened pass: the result is then a
   pure level run, cache-coherent under the standard fingerprint and
   byte-identical to a direct run at that level. Excision is the
   fallback when even the floor contains an opened pass, which is the
   only recovery when a Baseline pass's breaker opens. *)
let serving_level ?breaker rung =
  let opened =
    match breaker with
    | None -> []
    | Some b -> Breaker.excluded b ~passes:(Pipeline.level_stages ~level:rung)
  in
  if opened = [] then (rung, [])
  else
    let avoids l =
      let stages = Pipeline.level_stages ~level:l in
      List.for_all (fun p -> not (List.mem p stages)) opened
    in
    let rec seek l =
      if avoids l then Some l else Option.bind (Pipeline.lower l) seek
    in
    match seek rung with Some l -> (l, []) | None -> (rung, opened)

(* The pass-list transform of one attempt: excise [excised], plant the
   poisoned pass's deterministic failure, and report every pass outcome
   to the breakers. Pass names are preserved so spans and histograms
   stay attributable. *)
let attempt_passes ?breaker ~poison ~corr ~excised passes =
  let fired = ref false in
  passes
  |> List.filter (fun np -> not (List.mem np.Harness.pass_name excised))
  |> List.map (fun np ->
         let name = np.Harness.pass_name in
         { np with
           Harness.run =
             (fun r ->
               try
                 if poison = Some name then begin
                   if not !fired then begin
                     fired := true;
                     fire ~corr Chaos.Pass_poison
                   end;
                   raise (Chaos.Pass_poisoned name)
                 end;
                 np.Harness.run r;
                 Option.iter (fun b -> Breaker.success b ~pass:name) breaker
               with e ->
                 Option.iter (fun b -> Breaker.failure b ~pass:name) breaker;
                 raise e) })

type failure =
  | Deadline
  | Bad_input of string
  | Raised of exn
  | Invalid of string  (** a degraded result failed translation validation *)

(* One attempt of [job] at [level] without [excised]. A fresh deadline is
   armed, chaos faults keyed on the job id strike, and the program is
   loaded from scratch: optimization mutates in place, so a retry must
   not resume a half-transformed program. A result served below the
   request, or with passes excised, is translation-checked at the exec
   tier against the freshly loaded program before it may be served. *)
let attempt_job ?cache ?breaker ~policy ~chaos ~poison (job : job) ~attempt
    ~level ~excised =
  let deadline =
    Option.map
      (fun ms -> Int64.add (Clock.now_ns ()) (Int64.of_float (ms *. 1e6)))
      policy.Policy.timeout_ms
  in
  let poll () =
    match deadline with
    | Some d when Clock.now_ns () > d -> raise Policy.Deadline_exceeded
    | _ -> ()
  in
  let strike fault =
    List.mem fault chaos && Chaos.fires fault ~key:job.id
    && (fire ~corr:job.id fault; true)
  in
  let fingerprint =
    let base = Pipeline.fingerprint ~level in
    match excised with
    | [] -> base
    | ps -> base ^ "|excised:" ^ String.concat "," (List.sort compare ps)
  in
  try
    (* Worker-raise strikes the first attempt only: with retries enabled,
       a struck job deterministically lands on retried_ok rather than
       flapping. *)
    if attempt = 1 && strike Chaos.Worker_raise then
      raise (Chaos.Injected "chaos:worker-raise");
    (* A slow job stalls for three deadline budgets when one is set, so it
       times out deterministically instead of racing the clock. *)
    if strike Chaos.Slow_job then
      sliced_sleep ~poll
        (match policy.Policy.timeout_ms with Some t -> 3.0 *. t | None -> 20.0);
    poll ();
    match load_program job.input with
    | Error m -> Error (Bad_input m)
    | Ok prog ->
      Option.iter
        (fun c ->
          (* Corrupt this job's own entries before the lookup: the find
             below must take the poison-recovery path and recompile. *)
          if strike Chaos.Cache_corrupt then
            List.iter
              (fun r ->
                let iloc = Ir_text.routine_to_string r in
                Cache.corrupt c ~key:(Cache.key ~iloc ~fingerprint))
              (Program.routines prog);
          if strike Chaos.Cache_lock_hold then Cache.hold_lock c ~ms:2.0)
        cache;
      let degraded = level <> job.level || excised <> [] in
      let reference = if degraded then Some (Program.copy prog) else None in
      let wrap = attempt_passes ?breaker ~poison ~corr:job.id ~excised in
      let stats, job_counts =
        optimize_program ?cache ~poll ~wrap ~fingerprint ~level prog
      in
      let fuel = Harness.default_config.Harness.fuel in
      match reference with
      | Some before
        when not
               (Harness.obs_equal (Harness.observe ~fuel before)
                  (Harness.observe ~fuel prog)) ->
        count "serve.degraded_invalid";
        Error
          (Invalid
             (Printf.sprintf "degraded result failed translation validation at %s"
                (Pipeline.level_to_string level)))
      | _ -> Ok (stats, job_counts, prog)
  with
  | Policy.Deadline_exceeded -> Error Deadline
  | e -> Error (Raised e)

(* One job, serially: parallelism in the server is across jobs, not
   within one. Never raises — a worker exception would poison the whole
   batch. Each turn of the loop resolves the rung to the level (and
   excisions) the breakers allow, runs one attempt, and on failure asks
   [Policy.plan] whether to retry, descend or stop. [attempts] in the
   result is the total across retries and rungs. *)
let run_job ?cache ?(policy = Policy.default) ?(chaos = []) ?breaker (job : job) =
  (* Every observability event of this job's dynamic extent — log lines,
     span closures, ring entries, flight dumps — carries the job id as
     its correlation id, on whichever domain executes it. *)
  Recorder.with_corr job.id @@ fun () ->
  let t0 = Clock.now_ns () in
  let dump reason = ignore (Recorder.dump ~reason ~corr:job.id ()) in
  let finish ~attempts ~outcome r =
    count ("serve." ^ job_outcome_to_string outcome);
    let latency_ms = Clock.elapsed_ms ~since:t0 in
    Hist.observe_since ~name:"serve.job" t0;
    (match outcome with
    | Degraded -> Hist.observe_since ~name:"serve.degraded" t0
    | Succeeded | Failed | Timed_out | Retried | Shed -> ());
    Log.info ~event:"serve.job"
      ~fields:
        [ ("outcome", J.Str (job_outcome_to_string outcome));
          ("attempts", J.Int attempts);
          ("latency_ms", J.Float latency_ms);
          ("hits", J.Int r.job_counts.hits);
          ("misses", J.Int r.job_counts.misses) ]
      (Printf.sprintf "job %s: %s" job.id (job_outcome_to_string outcome));
    { r with latency_ms; attempts; outcome }
  in
  let timeout_ms = Option.value policy.Policy.timeout_ms ~default:0.0 in
  let poison =
    if List.mem Chaos.Pass_poison chaos then poisoned_pass () else None
  in
  let rec loop ~rung k =
    let level, excised = serving_level ?breaker rung in
    match
      attempt_job ?cache ?breaker ~policy ~chaos ~poison job ~attempt:k ~level
        ~excised
    with
    | Ok (stats, job_counts, prog) ->
      let outcome =
        if level <> job.level || excised <> [] then Degraded
        else if k > 1 then Retried
        else Succeeded
      in
      finish ~attempts:k ~outcome
        { job_id = job.id; ok = true; outcome; attempts = k;
          job_level = level;
          requested = (if level <> job.level then Some job.level else None);
          excised; routines = List.length stats; job_counts;
          latency_ms = 0.0;
          iloc = (if job.emit then Some (Ir_text.print_program prog) else None);
          line = None; error = None }
    | Error failure -> (
      let decision =
        Policy.plan policy ~id:job.id ~rung:level ~attempt:k
          (match failure with
          | Deadline -> `Deadline
          | Bad_input _ -> `Bad_input
          | Invalid _ -> `Permanent
          | Raised e -> Policy.classify e)
      in
      let detail =
        match failure with
        | Deadline -> "deadline exceeded"
        | Raised e -> Printexc.to_string e
        | Bad_input m | Invalid m -> m
      in
      (match (failure, decision) with
      | Deadline, _ ->
        count "serve.deadline_exceeded";
        Log.warn ~event:"serve.timeout"
          ~fields:[ ("attempt", J.Int k); ("timeout_ms", J.Float timeout_ms) ]
          ("job " ^ job.id ^ " blew its deadline")
      | Raised _, (Policy.Descend _ | Policy.Stop) ->
        (* A worker raised and no retry budget absorbs it: capture the
           post-mortem before reporting the failure. *)
        Log.error ~event:"serve.worker_raise" ~fields:[ ("attempt", J.Int k) ]
          detail;
        dump ("worker-raise: " ^ detail)
      | (Raised _ | Bad_input _ | Invalid _), _ -> ());
      let message =
        match failure with
        | Raised _ -> "optimization failed: " ^ detail
        | Deadline | Bad_input _ | Invalid _ -> detail
      in
      match decision with
      | Policy.Retry_after delay ->
        count "serve.retries";
        Log.warn ~event:"serve.retry"
          ~fields:[ ("attempt", J.Int k) ]
          ("transient failure, retrying: " ^ detail);
        Unix.sleepf delay;
        loop ~rung:level (k + 1)
      | Policy.Descend next ->
        count "serve.degrade_step";
        Log.warn ~event:"serve.degrade"
          ~fields:
            [ ("from", J.Str (Pipeline.level_to_string level));
              ("to", J.Str (Pipeline.level_to_string next));
              ( "cause",
                J.Str (match failure with Deadline -> "timeout" | _ -> "failure") );
              ("attempt", J.Int k) ]
          (Printf.sprintf "job %s: degrading %s -> %s (%s)" job.id
             (Pipeline.level_to_string level)
             (Pipeline.level_to_string next)
             message);
        loop ~rung:next (k + 1)
      | Policy.Stop ->
        let outcome, message =
          match failure with
          | Deadline ->
            dump "timeout";
            (Timed_out, Printf.sprintf "deadline exceeded (%.0f ms)" timeout_ms)
          | Bad_input _ | Invalid _ | Raised _ -> (Failed, message)
        in
        finish ~attempts:k ~outcome
          (error_result ~id:job.id ~level message))
  in
  loop ~rung:job.level 1

type summary = {
  jobs : int;
  succeeded : int;
  failed : int;
  timeouts : int;
  retried : int;
  degraded : int;
  shed : int;
  replayed : int;
  total : counts;
  wall_ms : float;
}

exception Killed

(* One admitted (or about-to-be-shed) input line, read ahead of dispatch
   and parsed once. [p_key] is the content hash the journal records. A
   malformed line still flows through [run_one] for its in-order error
   result, under the positional default id. *)
type pending_item = {
  p_default : string;
  p_seq : int;
  p_line_no : int;
  p_key : string;
  p_job : (job, string) result;
}

let p_id it = match it.p_job with Ok j -> j.id | Error _ -> it.p_default

let serve ?cache ?batch ?(policy = Policy.default) ?(chaos = []) ?stats_every
    ?metrics_out ?(stats_sink = prerr_endline) ?journal ?(resume = false)
    ?breaker ?max_pending ?(shed_policy = `Block) ~pool ~input ~output () =
  let batch_size =
    match batch with
    | Some b -> max b 1
    | None -> max 32 (4 * Pool.size pool)
  in
  (* Admission watermarks: the queue refills to [high] (which also bounds
     stdin read-ahead — backpressure in block mode); in reject mode a
     saturated queue sheds down to [low]'s distance worth of lines. *)
  let high = match max_pending with Some n -> max 1 n | None -> max_int in
  let low = if high = max_int then max_int else max 1 (high / 2) in
  let prefetch_target = if high = max_int then batch_size else high in
  let t0 = Clock.now_ns () in
  let seq = ref 0 and line_no = ref 0 in
  let jobs = ref 0 and succeeded = ref 0 and failed = ref 0 in
  let timeouts = ref 0 and retried = ref 0 in
  let degraded = ref 0 and shed = ref 0 and replayed = ref 0 in
  let total = ref no_traffic in
  let stats_every =
    match stats_every with Some n when n > 0 -> Some n | _ -> None
  in
  let next_stats = ref (Option.value stats_every ~default:max_int) in
  let write_metrics () =
    match metrics_out with
    | Some path -> Epre_telemetry.Exposition.write ~path
    | None -> ()
  in
  (* One line on stderr every [stats_every] completed jobs: enough to
     watch a long batch without tailing the JSONL log. All of it reads
     the registries the jobs already feed — no extra bookkeeping in the
     serving path. *)
  let emit_stats () =
    let wall_ms = Clock.elapsed_ms ~since:t0 in
    let m = Hist.merged (Hist.handle ~name:"serve.job") in
    let q p = float_of_int (Hist.quantile m p) /. 1e6 in
    let hit_rate =
      100.0
      *. float_of_int !total.hits
      /. float_of_int (max 1 (!total.hits + !total.misses))
    in
    let ps = Pool.stats pool in
    let util ns = 100.0 *. Int64.to_float ns /. 1e6 /. Float.max 1e-6 wall_ms in
    let per_domain =
      String.concat "/"
        (Array.to_list
           (Array.map (fun b -> Printf.sprintf "%.0f" (util b)) ps.Pool.busy_ns))
    in
    let per_domain =
      if per_domain = "" then Printf.sprintf "%.0f" (util ps.Pool.helper_busy_ns)
      else per_domain
    in
    stats_sink
      (Printf.sprintf
         "stats: %d jobs, %.1f jobs/s, hit rate %.0f%%, p50 %.2f ms, p99 %.2f \
          ms, util %s%%"
         !jobs
         (float_of_int !jobs /. Float.max 1e-6 (wall_ms /. 1000.0))
         hit_rate (q 0.5) (q 0.99) per_domain);
    write_metrics ()
  in
  (* Result lines a previous incarnation of THIS run provably emitted
     (journal [done]/[failed] records stamped with the run id the resume
     journal continues), keyed (seq, content-hash): on --resume those
     jobs are skipped, everything else re-runs exactly once. Filtering
     by run id keeps a concurrent serve's interleaved records out. *)
  let emitted_before =
    match (resume, journal) with
    | true, Some jr ->
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun sk -> Hashtbl.replace tbl sk ())
        (Journal.emitted ~run:(Journal.run jr) (Journal.entries jr));
      tbl
    | _ -> Hashtbl.create 1
  in
  let jappend entries =
    match journal with Some j -> Journal.append j entries | None -> ()
  in
  (* [done]/[failed] records may only hit the journal after their result
     line is physically flushed (otherwise a crash in between would lose
     the line on resume); records wait here until the output sequencer
     has passed their seq. *)
  let post_hold = ref [] in
  (* Output sequencer: every seq eventually resolves to a rendered line
     (processed or shed) or a skip (replayed on resume); lines leave in
     strict seq order whatever order they resolve in. *)
  let out_buf = Hashtbl.create 64 in
  let next_out = ref 1 in
  let emit_seq s v =
    Hashtbl.replace out_buf s v;
    while Hashtbl.mem out_buf !next_out do
      (match Hashtbl.find out_buf !next_out with
      | Some l ->
        output_string output l;
        output_char output '\n'
      | None -> ());
      Hashtbl.remove out_buf !next_out;
      incr next_out
    done
  in
  let flush_post () =
    let ready, rest = List.partition (fun (s, _) -> s < !next_out) !post_hold in
    jappend (List.map snd (List.sort compare ready));
    post_hold := rest
  in
  let record r =
    incr jobs;
    (if r.ok then incr succeeded
     else
       match r.outcome with
       | Shed -> incr shed
       | _ -> incr failed);
    (match r.outcome with
    | Timed_out -> incr timeouts
    | Retried -> incr retried
    | Degraded -> incr degraded
    | Succeeded | Failed | Shed -> ());
    total := add_counts !total r.job_counts
  in
  let eof = ref false in
  let rec read_one () =
    if !eof then None
    else
      match input_line input with
      | exception End_of_file ->
        eof := true;
        None
      | line ->
        incr line_no;
        if String.trim line = "" then read_one ()
        else begin
          incr seq;
          let default_id = Printf.sprintf "job-%d" !seq in
          Some
            { p_default = default_id; p_seq = !seq; p_line_no = !line_no;
              p_key = Digest.to_hex (Digest.string line);
              p_job = job_of_line ~default_id line }
        end
  in
  let pending = Queue.create () in
  let replay it =
    incr replayed;
    count "serve.replayed";
    emit_seq it.p_seq None
  in
  let shed_one it =
    count "serve.shed";
    Log.warn ~event:"serve.shed" ~corr:(p_id it)
      ~fields:[ ("seq", J.Int it.p_seq); ("max_pending", J.Int high) ]
      (Printf.sprintf "job %s shed: pending queue at capacity" (p_id it));
    let r =
      error_result ~outcome:Shed ~id:(p_id it)
        ~level:(match it.p_job with Ok j -> j.level | Error _ -> Pipeline.Partial)
        ~line:it.p_line_no
        (Printf.sprintf "shed: pending queue at capacity (max-pending %d)" high)
    in
    record r;
    emit_seq it.p_seq (Some (J.to_string (result_to_json r)));
    post_hold :=
      ( it.p_seq,
        Journal.entry ~kind:"failed" ~seq:it.p_seq ~id:(p_id it) ~key:it.p_key
          ~fields:[ ("outcome", J.Str "shed") ] () )
      :: !post_hold
  in
  (* Admit input up to the prefetch target; under reject-mode saturation,
     deterministically shed the next (high - low) lines. Returns the
     [accepted] journal records for the newly admitted jobs. *)
  let refill () =
    let accepted = ref [] in
    while (not !eof) && Queue.length pending < prefetch_target do
      match read_one () with
      | None -> ()
      | Some it ->
        if Hashtbl.mem emitted_before (it.p_seq, it.p_key) then replay it
        else begin
          Queue.add it pending;
          accepted :=
            Journal.entry ~kind:"accepted" ~seq:it.p_seq ~id:(p_id it)
              ~key:it.p_key
              ~fields:[ ("line", J.Int it.p_line_no) ]
              ()
            :: !accepted
        end
    done;
    if shed_policy = `Reject && Queue.length pending >= high then begin
      let quota = max 1 (high - low) in
      let rec shed_loop n item =
        match item with
        | None -> ()
        | Some it ->
          if Hashtbl.mem emitted_before (it.p_seq, it.p_key) then begin
            (* Already served by the previous incarnation: a replay skip,
               not a shed, and it does not burn shed quota. *)
            replay it;
            shed_loop n (read_one ())
          end
          else begin
            shed_one it;
            if n > 1 then shed_loop (n - 1) (read_one ())
          end
      in
      match read_one () with
      | None -> ()
      | Some first -> shed_loop quota (Some first)
    end;
    List.rev !accepted
  in
  let run_one it =
    match it.p_job with
    | Error m ->
      (* A malformed line is one bad job, never a dead server: report it
         in order, with the offending line number, and keep serving. *)
      count "serve.bad_line";
      error_result ~id:it.p_default ~level:Pipeline.Partial ~line:it.p_line_no
        (Printf.sprintf "line %d: %s" it.p_line_no m)
    | Ok job -> run_job ?cache ~policy ~chaos ?breaker job
  in
  let has_kill = List.mem Chaos.Kill_self chaos in
  let rec loop () =
    let accepted_now = refill () in
    Hist.observe ~name:"queue.depth" (Queue.length pending);
    let n = min batch_size (Queue.length pending) in
    if n = 0 then begin
      jappend accepted_now;
      flush output;
      flush_post ()
    end
    else begin
      let arr = Array.init n (fun _ -> Queue.pop pending) in
      (* WAL barrier: accepted + started records are durable before any
         of the batch dispatches — a crash from here on leaves every
         in-flight job journaled, so --resume re-runs it exactly once. *)
      jappend
        (accepted_now
        @ (Array.to_list arr
          |> List.map (fun it ->
                 Journal.entry ~kind:"started" ~seq:it.p_seq ~id:(p_id it)
                   ~key:it.p_key
                   ~fields:
                     (match it.p_job with
                     | Ok j ->
                       [ ("fingerprint", J.Str (Pipeline.fingerprint ~level:j.level)) ]
                     | Error _ -> [])
                   ())));
      (* chaos:kill-self aborts at exactly this journal-consistent point:
         the batch is journaled [started] but none of its results have
         been emitted, so output ends clean at a batch boundary and the
         resume run recomputes the batch from the same cache state an
         uninterrupted run would have seen. *)
      if
        has_kill
        && Array.exists (fun it -> Chaos.fires Chaos.Kill_self ~key:(p_id it)) arr
      then begin
        fire Chaos.Kill_self;
        flush output;
        raise Killed
      end;
      (* [run_job] never raises; [map_outcomes] is the last-ditch
         containment if the service layer itself crashes on a job — the
         batch still drains and every job still reports in order. *)
      let outcomes = Pool.map_outcomes pool run_one arr in
      Array.iteri
        (fun i outcome ->
          let it = arr.(i) in
          let r =
            match outcome with
            | Pool.Done r -> r
            | Pool.Failed (e, _) ->
              count "serve.worker_crash";
              Log.error ~event:"serve.worker_crash" ~corr:it.p_default
                (Printexc.to_string e);
              ignore
                (Recorder.dump
                   ~reason:("worker-crash: " ^ Printexc.to_string e)
                   ~corr:it.p_default ());
              error_result ~id:it.p_default ~level:Pipeline.Partial
                ~line:it.p_line_no ("worker crashed: " ^ Printexc.to_string e)
          in
          record r;
          emit_seq it.p_seq (Some (J.to_string (result_to_json r)));
          post_hold :=
            ( it.p_seq,
              Journal.entry
                ~kind:(if r.ok then "done" else "failed")
                ~seq:it.p_seq ~id:r.job_id ~key:it.p_key
                ~fields:[ ("outcome", J.Str (job_outcome_to_string r.outcome)) ]
                () )
            :: !post_hold)
        outcomes;
      flush output;
      (* Only now, with the batch's lines flushed, do their done/failed
         records (and those of any shed lines the flush released) become
         journal-eligible. *)
      flush_post ();
      (match stats_every with
      | Some every when !jobs >= !next_stats ->
        emit_stats ();
        (* Catch up past a large batch instead of emitting once per
           crossed threshold. *)
        while !jobs >= !next_stats do
          next_stats := !next_stats + every
        done
      | _ -> ());
      loop ()
    end
  in
  loop ();
  if stats_every <> None then emit_stats () else write_metrics ();
  { jobs = !jobs; succeeded = !succeeded; failed = !failed;
    timeouts = !timeouts; retried = !retried; degraded = !degraded;
    shed = !shed; replayed = !replayed; total = !total;
    wall_ms = Clock.elapsed_ms ~since:t0 }
