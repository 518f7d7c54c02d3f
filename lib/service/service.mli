(** The compile service: cached, parallel program optimization, and the
    fault-tolerant batch protocol behind `eprec serve`.

    Composition of the substrates:
    - {!Pool} fans jobs across domains while preserving input order, so
      parallel output is byte-identical to the serial path;
    - {!Cache} short-circuits routines whose (canonical ILOC, pipeline
      fingerprint) digest was optimized before, serving the stored text
      verbatim and replaying the stored statistics;
    - {!Policy} bounds each job with a deadline and optionally steps a
      failing job down the optimization levels, so one bad job is one
      [ok:false] (or degraded) result, never a dead server.

    Serve protocol (newline-delimited JSON on stdin/stdout):

    {v
    job:    {"id":"j1","level":"partial","workload":"saxpy"}
            {"id":"j2","file":"kernels/spline.src","emit":false}
            {"id":"j3","source":"fn main() { ... }"}
            {"id":"j4","iloc":"routine main ..."}
    result: {"type":"result","id":"j1","ok":true,"outcome":"ok",
             "attempts":1,"level":"partial","routines":1,"hits":0,
             "misses":1,"latency_ms":1.93,"iloc":"..."}
            {"type":"result","id":"j2","ok":false,"outcome":"error",
             "attempts":1,...,"line":7,"error":"line 7: ..."}
    v}

    [level] defaults to ["partial"], [emit] (include optimized ILOC in
    the result) to [true]. Exactly one of [file] / [workload] / [source]
    / [iloc] names the program; a [file] ending in [.iloc] is read as
    ILOC text, any other as mini-language source. A malformed job line
    yields an in-order [ok:false] result carrying the offending input
    line number rather than killing the server; [outcome] is one of
    ["ok"], ["error"], ["timeout"] and ["degraded"] (served below the
    requested optimization level — the result then carries a
    ["requested"] field).

    A job fails only for its own reasons: the optimizer is deterministic,
    so a re-run on the same input would fail the same way, and the
    side-channel I/O a job does (cache stores, log sinks) absorbs its own
    errors ({!Cache.store}, {!Epre_telemetry.Log.emit}).

    Crash safety: with a {!Journal} attached, serve write-ahead-logs
    every job ([accepted]/[started] before dispatch, [done]/[failed]
    after the result line is flushed) so a killed process restarted with
    [resume] completes the batch — journaled jobs are skipped, in-flight
    ones re-run exactly once, and the merged output equals an
    uninterrupted run's.

    Counters (routine key ["<service>"]): [serve.ok], [serve.error],
    [serve.timeout], [serve.degraded],
    [serve.replayed], [serve.degrade_step],
    [serve.degraded_invalid], [serve.deadline_exceeded],
    [serve.bad_line], [serve.worker_crash], [breaker.open] /
    [breaker.half-open] / [breaker.closed], and [chaos.*] per injected
    fault. Histograms: [serve.degraded] (latency of degraded jobs) and
    [queue.depth] (jobs read into each batch, observed once per loop
    turn) join the set below.

    Observability (all off the result path — stdout results are
    byte-identical with every sink enabled or disabled):
    - histograms ({!Epre_telemetry.Histogram}): [serve.job] end-to-end
      latency, [pool.queue_wait], [pool.idle],
      [cache.read], [cache.write], [cache.lock_wait], and [pass.<name>]
      per optimization pass;
    - structured events ({!Epre_telemetry.Log}): [serve.job],
      [serve.degrade], [serve.timeout], [serve.worker_raise],
      [serve.worker_crash], [chaos.fire], [harness.rollback] — every
      [serve.*] / [chaos.*] event carries the job id as its correlation
      id ({!Epre_telemetry.Recorder.with_corr} wraps [run_job]). *)

open Epre_ir

(** Cache traffic of one [optimize_program] / [run_job] call: routines
    served from the cache vs. recompiled (and stored). Without a cache
    every routine is a miss. *)
type counts = { hits : int; misses : int }

(** Optimize every routine of the program at [level], in routine order,
    and return the stats, the cache traffic and the optimized program's
    ILOC text — byte-identical to {!Epre_ir.Ir_text.print_program} of a
    fully optimized program. [cache] consults and fills the persistent
    cache per routine: a miss is optimized in place and stored; a hit
    leaves its routine in the program untouched and contributes the
    stored text verbatim, so after a cached call only the returned text
    is the optimized program. [poll] is called between routines and
    passes and may raise to abandon the job (deadline enforcement).
    Stats come back in routine order, byte-identical to the uncached
    path. [wrap] transforms each
    routine's pass list before it runs
    ({!Epre.Pipeline.optimize_routine}); cache entries are keyed by the
    level's standard fingerprint, so [wrap] may instrument passes or make
    one fail, but must not change what a successful run computes. *)
val optimize_program :
  ?cache:Cache.t ->
  ?poll:(unit -> unit) ->
  ?wrap:
    (Epre_harness.Harness.named_pass list -> Epre_harness.Harness.named_pass list) ->
  level:Epre.Pipeline.level ->
  Program.t ->
  Epre.Pipeline.routine_stats list * counts * string

(** Per-job failure policy: deadline and degradation. *)
module Policy : sig
  type t = {
    timeout_ms : float option;
        (** per-attempt wall-clock budget; overruns are cancelled at the
            next pass boundary and reported as [outcome = "timeout"] *)
    degrade : bool;
        (** when a job fails at a level above Baseline (a raised pass, a
            failed validation, a deadline overrun), re-attempt it one
            optimization level lower, down to -O0 — each rung gets a
            fresh deadline; success below the requested level reports
            [outcome = "degraded"] after exec-tier translation
            validation. Bad input is never re-attempted. *)
  }

  (** No deadline, no degradation. *)
  val default : t

  (** Raised by the poll hook when the attempt's deadline has passed. *)
  exception Deadline_exceeded
end

type job_input =
  | File of string  (** [.iloc]: ILOC text file path; else mini-language *)
  | Workload of string  (** built-in workload name *)
  | Source of string  (** inline mini-language source text *)
  | Iloc of string  (** inline ILOC text *)

type job = {
  id : string;
  level : Epre.Pipeline.level;
  input : job_input;
  emit : bool;  (** include the optimized ILOC in the result *)
}

(** The program a job input names (the CLI reads program files through
    it). [Error] is one line: ["path:line: message"] for a file that does
    not parse or validate, ["line N: message"] for inline [source] or
    [iloc] text that does not, the [Sys_error] text for an unreadable
    file. ILOC is parsed, then validated: a routine that fails validation
    is reported at its header line. *)
val load_program : job_input -> (Program.t, string) result

(** Decode one job line. [default_id] is used when the object carries no
    ["id"] field; [Error] is the protocol-level complaint that becomes an
    [ok:false] result. *)
val job_of_line : default_id:string -> string -> (job, string) result

(** How a job ended: [Succeeded] ("ok") at the requested level,
    [Timed_out] ("timeout") past its deadline, [Failed] ("error") on any
    other failure, [Degraded] ("degraded") when served below the
    requested level by the degradation ladder or an open breaker. *)
type job_outcome = Succeeded | Failed | Timed_out | Degraded

(** The wire name: ["ok"] / ["error"] / ["timeout"] / ["degraded"]. *)
val job_outcome_to_string : job_outcome -> string

type result_line = {
  job_id : string;
  ok : bool;
  outcome : job_outcome;
  attempts : int;  (** ladder rungs tried *)
  job_level : Epre.Pipeline.level;  (** the level actually served *)
  requested : Epre.Pipeline.level option;
      (** the requested level, when it differs (degraded results) *)
  routines : int;
  job_counts : counts;
  latency_ms : float;  (** total wall, across every attempt *)
  iloc : string option;  (** optimized program text, when [emit] *)
  line : int option;  (** input line number, on protocol-level errors *)
  error : string option;
}

val result_to_json : result_line -> Epre_telemetry.Tjson.t

(** The pass [chaos:pass-poison] breaks under the current (or given)
    seed: a deterministic pick among the passes that exist above Baseline
    but not in it, so the degradation floor always survives. [None] only
    if that candidate set were empty. *)
val poisoned_pass : ?seed:int -> unit -> string option

(** Execute one job serially (parallelism in the server is across jobs):
    load the program, optimize it at the job's level through [cache],
    measure wall latency. Never raises — failures come back as
    [ok = false] with a classified {!job_outcome}. [policy] arms a fresh
    deadline per attempt; after a failed attempt the job stops on bad
    input, and otherwise steps down one rung when [policy.degrade] is on
    and a lower rung exists. Every result served below the requested
    level is translation-checked at the exec tier against the freshly
    loaded program before reporting [Degraded]: the served text is
    parsed back into a program (the one parse a cache hit ever costs)
    and both are run; a mismatch, or text that does not parse, is a
    failure, so the ladder keeps descending. [breaker] consults/updates the
    per-pass circuit-breaker registry: opened passes are avoided by
    serving the highest level whose sequence lacks them (pure level run,
    standard fingerprint); when even the floor contains one, the rung
    itself serves. [chaos] enables service-fault injection keyed
    deterministically on the job id ({!Epre_harness.Chaos.fires}). *)
val run_job :
  ?cache:Cache.t ->
  ?policy:Policy.t ->
  ?chaos:Epre_harness.Chaos.service_fault list ->
  ?breaker:Breaker.t ->
  job ->
  result_line

(** Whole-batch totals, for the closing stderr line and the smoke test.
    [timeouts] breaks down [failed]; [degraded] breaks down
    [succeeded]. [jobs] counts result lines emitted by {e this} run.
    [replayed] counts
    jobs skipped on resume because the journal proved a previous
    incarnation already emitted their lines (not included in [jobs]). *)
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

(** Raised (after flushing [output] and fsyncing the journal) when
    [chaos:kill-self] fires: the process is expected to die — the CLI
    converts it into a real SIGKILL. The journal is consistent: the
    doomed batch is recorded [started] but none of its results were
    emitted, so a [resume] run completes the batch exactly. *)
exception Killed

(** Read job lines from [input] until EOF, batching up to [batch] jobs
    (default [max 32 (4 * pool size)]) per {!Pool.map_outcomes} round,
    and stream one JSON result line per job to [output] in input order
    (flushed after every batch). Input is read only between batches, so
    [batch] bounds read-ahead and a busy server leaves the rest of its
    input in the pipe. Blank lines are skipped; malformed lines produce
    error results carrying their input line number; a crash in the
    service layer itself is contained to that job's slot and reported
    under the job's own id and level. No job is ever lost or reordered.

    [journal] write-ahead-logs every job's lifecycle ({!Journal});
    [resume] additionally loads the journal first and skips the jobs
    whose [(seq, content-hash)] it records as emitted. [breaker] is
    threaded to every {!run_job}.

    [stats_every] emits a one-line progress summary to [stats_sink]
    (default stderr) after every N completed jobs and once at the end:
    job count, throughput, cache hit rate, p50/p99 job latency from the
    [serve.job] histogram, and pool utilization with one figure per
    domain (each spawned worker, then the submitting domain). [metrics_out]
    writes the full Prometheus-style exposition
    ({!Epre_telemetry.Exposition.write}, atomic temp+rename) on each
    stats tick and once when the input is drained; a failed write is
    counted and serving goes on. Neither touches [output].

    @raise Killed when [chaos:kill-self] fires (see {!Killed}). *)
val serve :
  ?cache:Cache.t ->
  ?batch:int ->
  ?policy:Policy.t ->
  ?chaos:Epre_harness.Chaos.service_fault list ->
  ?stats_every:int ->
  ?metrics_out:string ->
  ?stats_sink:(string -> unit) ->
  ?journal:Journal.t ->
  ?resume:bool ->
  ?breaker:Breaker.t ->
  pool:Pool.t ->
  input:in_channel ->
  output:out_channel ->
  unit ->
  summary
