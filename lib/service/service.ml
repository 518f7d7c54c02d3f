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

(* Optimize one routine through the cache; the routine's optimized text
   comes back with its stats. The cache key is the digest of the
   routine's canonical pre-optimization text plus the level fingerprint.
   A hit leaves [r] untouched and serves the stored text verbatim:
   because [Ir_text] round-trips exactly, it is byte-identical to the
   text a recompile would print. *)
let optimize_routine_cached ?cache ?poll ?wrap ~level ~fingerprint
    (r : Routine.t) =
  let compile () =
    let stats = Pipeline.optimize_routine ?poll ?wrap ~level r in
    (stats, Ir_text.routine_to_string r)
  in
  match cache with
  | None ->
    let stats, text = compile () in
    (stats, { hits = 0; misses = 1 }, text)
  | Some c -> (
    let k = Cache.key ~iloc:(Ir_text.routine_to_string r) ~fingerprint in
    match Cache.find c ~key:k with
    | Some (text, stats) when stats.Pipeline.routine = r.Routine.name ->
      (* A recompile would have bumped the metrics registry; replay the
         stored statistics so cached and cold runs report identically. *)
      Pipeline.record_metrics stats;
      (stats, { hits = 1; misses = 0 }, text)
    | Some _ | None ->
      let stats, text = compile () in
      Cache.store c ~key:k ~fingerprint ~iloc:text ~stats;
      (stats, { hits = 0; misses = 1 }, text))

let optimize_program ?cache ?(poll = fun () -> ()) ?wrap ~level (p : Program.t) =
  (* [wrap] only instruments the level's passes (or makes one fail), so
     the level's standard fingerprint still names what runs. *)
  let fingerprint = Pipeline.fingerprint ~level in
  let results =
    List.map
      (fun r ->
        poll ();
        optimize_routine_cached ?cache ~poll ?wrap ~level ~fingerprint r)
      (Program.routines p)
  in
  ( List.map (fun (s, _, _) -> s) results,
    List.fold_left (fun acc (_, c, _) -> add_counts acc c) no_traffic results,
    (* The layout of [Ir_text.print_program]. *)
    String.concat "" (List.map (fun (_, _, text) -> text ^ "\n") results) )

(* ------------------------------------------------------------------ *)
(* Failure policy *)

module Policy = struct
  type t = { timeout_ms : float option; degrade : bool }

  let default = { timeout_ms = None; degrade = false }

  exception Deadline_exceeded
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

type job_outcome = Succeeded | Failed | Timed_out | Degraded

let job_outcome_to_string = function
  | Succeeded -> "ok"
  | Failed -> "error"
  | Timed_out -> "timeout"
  | Degraded -> "degraded"

type result_line = {
  job_id : string;
  ok : bool;
  outcome : job_outcome;
  attempts : int;
  job_level : Pipeline.level;
  requested : Pipeline.level option;
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
    @ [ ("routines", J.Int r.routines);
        ("hits", J.Int r.job_counts.hits);
        ("misses", J.Int r.job_counts.misses);
        ("latency_ms", J.Float r.latency_ms) ]
    @ (match r.line with Some n -> [ ("line", J.Int n) ] | None -> [])
    @ (match r.iloc with Some s -> [ ("iloc", J.Str s) ] | None -> [])
    @ match r.error with Some m -> [ ("error", J.Str m) ] | None -> [])

(* An ILOC program, parsed and then validated; a routine that fails
   validation is reported at its header line. Errors read
   [<where><line>: <message>]. *)
let parse_iloc ~where text =
  let at line m = Error (Printf.sprintf "%s%d: %s" where line m) in
  let invalid (r : Routine.t) =
    match Routine.validate r with () -> None | exception Routine.Ill_formed m -> Some (r, m)
  in
  match Ir_text.parse_program ~validate:false text with
  | exception Ir_text.Parse_error { line; message } -> at line message
  | prog -> (
    match List.find_map invalid (Program.routines prog) with
    | None -> Ok prog
    | Some (r, m) ->
      let prefix = "routine " ^ r.Routine.name ^ "(" in
      let header l = String.starts_with ~prefix (String.trim l) in
      let lines = String.split_on_char '\n' text in
      at (1 + Option.value ~default:0 (List.find_index header lines)) m)

let load_program = function
  | File path -> (
    match In_channel.with_open_bin path In_channel.input_all with
    | text when Filename.check_suffix path ".iloc" -> parse_iloc ~where:(path ^ ":") text
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
  | Iloc text -> parse_iloc ~where:"line " text

let error_result ?line ~id ~level msg =
  { job_id = id; ok = false; outcome = Failed; attempts = 1; job_level = level;
    requested = None; routines = 0; job_counts = no_traffic;
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

(* A service fault fires: count it and log it. *)
let fire fault =
  let name = Chaos.service_name fault in
  (* chaos:pass-poison counts as chaos.pass_poison. *)
  count (String.map (function ':' -> '.' | '-' -> '_' | c -> c) name);
  Log.warn ~event:"chaos.fire" ~fields:[ ("fault", J.Str name) ] ("injected " ^ name)

(* The level that serves [rung], given the passes whose breakers are
   open: the highest standard level at or below the rung whose sequence
   avoids every opened pass. The result is then a pure level run,
   cache-coherent under the standard fingerprint and byte-identical to a
   direct run at that level. When no level avoids them (an opened pass
   is in the floor), the rung itself serves. *)
let serving_level ?breaker rung =
  match breaker with
  | None -> rung
  | Some b ->
    let opened = Breaker.excluded b ~passes:(Pipeline.level_stages ~level:rung) in
    let avoids l =
      let stages = Pipeline.level_stages ~level:l in
      List.for_all (fun p -> not (List.mem p stages)) opened
    in
    let rec seek l =
      if avoids l then Some l else Option.bind (Pipeline.lower l) seek
    in
    Option.value (seek rung) ~default:rung

(* The pass-list transform of one attempt: plant the poisoned pass's
   deterministic failure, and report every pass outcome to the breakers.
   Pass names are preserved so spans and histograms stay attributable. *)
let attempt_passes ?breaker ~poison passes =
  let fired = ref false in
  List.map
    (fun np ->
      let name = np.Harness.pass_name in
      { np with
        Harness.run =
          (fun r ->
            try
              if poison = Some name then begin
                if not !fired then begin
                  fired := true;
                  fire Chaos.Pass_poison
                end;
                raise (Chaos.Pass_poisoned name)
              end;
              np.Harness.run r;
              Option.iter (fun b -> Breaker.success b ~pass:name) breaker
            with e ->
              Option.iter (fun b -> Breaker.failure b ~pass:name) breaker;
              raise e) })
    passes

type failure =
  | Deadline
  | Bad_input of string
  | Raised of exn
  | Invalid of string  (** a degraded result failed translation validation *)

(* One attempt of [job] at [level]. A fresh deadline is armed, chaos
   faults keyed on the job id strike, and the program is loaded from
   scratch: optimization mutates in place, so a lower rung must not
   resume a half-transformed program. A result served below the request
   is translation-checked at the exec tier against the freshly loaded
   program before it may be served. *)
let attempt_job ?cache ?breaker ~policy ~chaos ~poison (job : job) ~level =
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
    && (fire fault; true)
  in
  try
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
          if strike Chaos.Cache_corrupt then begin
            let fingerprint = Pipeline.fingerprint ~level in
            List.iter
              (fun r ->
                let iloc = Ir_text.routine_to_string r in
                Cache.corrupt c ~key:(Cache.key ~iloc ~fingerprint))
              (Program.routines prog)
          end;
          if strike Chaos.Cache_lock_hold then Cache.hold_lock c ~ms:2.0)
        cache;
      let reference =
        if level <> job.level then Some (Program.copy prog) else None
      in
      let wrap = attempt_passes ?breaker ~poison in
      let stats, job_counts, text =
        optimize_program ?cache ~poll ~wrap ~level prog
      in
      (* Hits leave their routines unoptimized in [prog]; the served
         text is the result, so a degraded one is rebuilt from it. *)
      let fuel = Harness.default_config.Harness.fuel in
      let valid before =
        match Ir_text.parse_program text with
        | served ->
          Harness.obs_equal (Harness.observe ~fuel before)
            (Harness.observe ~fuel served)
        | exception _ -> false
      in
      match reference with
      | Some before when not (valid before) ->
        count "serve.degraded_invalid";
        Error
          (Invalid
             (Printf.sprintf "degraded result failed translation validation at %s"
                (Pipeline.level_to_string level)))
      | _ -> Ok (stats, job_counts, text)
  with
  | Policy.Deadline_exceeded -> Error Deadline
  | e -> Error (Raised e)

(* One job, serially: parallelism in the server is across jobs, not
   within one. Never raises — a worker exception would poison the whole
   batch. Each turn of the loop resolves the rung to the level the
   breakers allow and runs one attempt. On failure, bad input stops (no
   optimization level can fix it); any other failure descends one rung
   when [degrade] allows and a lower rung exists. [attempts] in the
   result is the number of rungs tried. *)
let run_job ?cache ?(policy = Policy.default) ?(chaos = []) ?breaker (job : job) =
  (* Every log event of this job's dynamic extent carries the job id as
     its correlation id, on whichever domain executes it. *)
  Recorder.with_corr job.id @@ fun () ->
  let t0 = Clock.now_ns () in
  let finish ~attempts ~outcome r =
    count ("serve." ^ job_outcome_to_string outcome);
    let latency_ms = Clock.elapsed_ms ~since:t0 in
    Hist.observe_since ~name:"serve.job" t0;
    (match outcome with
    | Degraded -> Hist.observe_since ~name:"serve.degraded" t0
    | Succeeded | Failed | Timed_out -> ());
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
    let level = serving_level ?breaker rung in
    match attempt_job ?cache ?breaker ~policy ~chaos ~poison job ~level with
    | Ok (stats, job_counts, text) ->
      let outcome = if level <> job.level then Degraded else Succeeded in
      finish ~attempts:k ~outcome
        { job_id = job.id; ok = true; outcome; attempts = k;
          job_level = level;
          requested = (if level <> job.level then Some job.level else None);
          routines = List.length stats; job_counts;
          latency_ms = 0.0;
          iloc = (if job.emit then Some text else None);
          line = None; error = None }
    | Error failure -> (
      let detail =
        match failure with
        | Deadline -> "deadline exceeded"
        | Raised e -> Printexc.to_string e
        | Bad_input m | Invalid m -> m
      in
      (match failure with
      | Deadline ->
        count "serve.deadline_exceeded";
        Log.warn ~event:"serve.timeout"
          ~fields:[ ("attempt", J.Int k); ("timeout_ms", J.Float timeout_ms) ]
          ("job " ^ job.id ^ " blew its deadline")
      | Raised _ ->
        Log.error ~event:"serve.worker_raise" ~fields:[ ("attempt", J.Int k) ]
          detail
      | Bad_input _ | Invalid _ -> ());
      let message =
        match failure with
        | Raised _ -> "optimization failed: " ^ detail
        | Deadline | Bad_input _ | Invalid _ -> detail
      in
      let next =
        match failure with
        | Bad_input _ -> None
        | Deadline | Raised _ | Invalid _ ->
          if policy.Policy.degrade then Pipeline.lower level else None
      in
      match next with
      | Some next ->
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
      | None ->
        let outcome, message =
          match failure with
          | Deadline ->
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
  degraded : int;
  replayed : int;
  total : counts;
  wall_ms : float;
}

exception Killed

(* One input line of the current batch, parsed once. [p_key] is the
   content hash the journal records. A malformed line still flows through
   [run_one] for its in-order error result, under the positional default
   id. *)
type item = {
  p_default : string;
  p_seq : int;
  p_line_no : int;
  p_key : string;
  p_job : (job, string) result;
}

let p_id it = match it.p_job with Ok j -> j.id | Error _ -> it.p_default

let serve ?cache ?batch ?(policy = Policy.default) ?(chaos = []) ?stats_every
    ?metrics_out ?(stats_sink = prerr_endline) ?journal ?(resume = false)
    ?breaker ~pool ~input ~output () =
  let batch_size =
    match batch with
    | Some b -> max b 1
    | None -> max 32 (4 * Pool.size pool)
  in
  let t0 = Clock.now_ns () in
  let seq = ref 0 and line_no = ref 0 in
  let jobs = ref 0 and succeeded = ref 0 and failed = ref 0 in
  let timeouts = ref 0 and degraded = ref 0 and replayed = ref 0 in
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
    (* One figure per domain that runs jobs: each spawned worker, then
       the submitting domain (the only one of an inline pool). *)
    let per_domain =
      String.concat "/"
        (List.map
           (fun b -> Printf.sprintf "%.0f" (util b))
           (Array.to_list ps.Pool.busy_ns @ [ ps.Pool.helper_busy_ns ]))
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
  let record r =
    incr jobs;
    if r.ok then incr succeeded else incr failed;
    (match r.outcome with
    | Timed_out -> incr timeouts
    | Degraded -> incr degraded
    | Succeeded | Failed -> ());
    total := add_counts !total r.job_counts
  in
  (* The next [n] non-blank lines the previous incarnation did not
     already serve, in input order. Input is read only here, between
     batches, so [batch] bounds read-ahead and a busy server leaves the
     rest in the pipe. *)
  let eof = ref false in
  let rec read_batch acc n =
    if n = 0 || !eof then List.rev acc
    else
      match input_line input with
      | exception End_of_file ->
        eof := true;
        List.rev acc
      | line ->
        incr line_no;
        if String.trim line = "" then read_batch acc n
        else begin
          incr seq;
          let key = Digest.to_hex (Digest.string line) in
          if Hashtbl.mem emitted_before (!seq, key) then begin
            incr replayed;
            count "serve.replayed";
            read_batch acc n
          end
          else
            let default_id = Printf.sprintf "job-%d" !seq in
            read_batch
              ({ p_default = default_id; p_seq = !seq; p_line_no = !line_no;
                 p_key = key; p_job = job_of_line ~default_id line }
              :: acc)
              (n - 1)
        end
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
    let items = read_batch [] batch_size in
    Hist.observe ~name:"queue.depth" (List.length items);
    if items <> [] then begin
      (* WAL barrier: accepted + started records are durable before any
         of the batch dispatches — a crash from here on leaves every
         in-flight job journaled, so --resume re-runs it exactly once. *)
      let entry kind fields it =
        Journal.entry ~kind ~seq:it.p_seq ~id:(p_id it) ~key:it.p_key ~fields ()
      in
      jappend
        (List.map (fun it -> entry "accepted" [ ("line", J.Int it.p_line_no) ] it) items
        @ List.map
            (fun it ->
              entry "started"
                (match it.p_job with
                | Ok j ->
                  [ ("fingerprint", J.Str (Pipeline.fingerprint ~level:j.level)) ]
                | Error _ -> [])
                it)
            items);
      (* chaos:kill-self aborts at exactly this journal-consistent point:
         the batch is journaled [started] but none of its results have
         been emitted, so output ends clean at a batch boundary and the
         resume run recomputes the batch from the same cache state an
         uninterrupted run would have seen. *)
      if
        has_kill
        && List.exists (fun it -> Chaos.fires Chaos.Kill_self ~key:(p_id it)) items
      then begin
        fire Chaos.Kill_self;
        flush output;
        raise Killed
      end;
      (* [run_job] never raises; [map_outcomes] is the last-ditch
         containment if the service layer itself crashes on a job — the
         batch still drains and every job still reports in order, under
         its own id and level. *)
      let outcomes = Pool.map_outcomes pool run_one (Array.of_list items) in
      let results =
        List.map2
          (fun it outcome ->
            match outcome with
            | Pool.Done r -> r
            | Pool.Failed (e, _) ->
              let msg = Printexc.to_string e in
              count "serve.worker_crash";
              Log.error ~event:"serve.worker_crash" ~corr:(p_id it) msg;
              let level =
                match it.p_job with Ok j -> j.level | Error _ -> Pipeline.Partial
              in
              error_result ~id:(p_id it) ~level ~line:it.p_line_no
                ("worker crashed: " ^ msg))
          items (Array.to_list outcomes)
      in
      List.iter
        (fun r ->
          record r;
          output_string output (J.to_string (result_to_json r));
          output_char output '\n')
        results;
      flush output;
      (* [done]/[failed] records may only hit the journal after their
         result line is flushed: a crash in between must not lose the
         line on resume. *)
      jappend
        (List.map2
           (fun it r ->
             entry
               (if r.ok then "done" else "failed")
               [ ("outcome", J.Str (job_outcome_to_string r.outcome)) ]
               it)
           items results);
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
    timeouts = !timeouts; degraded = !degraded;
    replayed = !replayed; total = !total;
    wall_ms = Clock.elapsed_ms ~since:t0 }
