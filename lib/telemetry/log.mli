(** Leveled structured event log for the compile service.

    Every event carries a monotonic timestamp (nanoseconds since process
    start), its level, a short machine-readable event name (e.g.
    ["serve.job"], ["chaos.fire"]), the emitting domain's id, the
    ambient correlation id ({!Recorder.with_corr} — the job id inside
    [run_job]'s dynamic extent), a human message and optional structured
    fields.

    Two destinations, each independently enabled:
    - a {e text sink} (stderr by default; [--log-level] on the CLI)
      filtered to [set_stderr_level] and above;
    - a {e JSONL file sink} ([open_file]; [--log-out FILE.jsonl]) that
      records every level, one {!Tjson} object per line.

    With no sink, emission is a one-ref probe no-op, so log calls stay
    unconditionally wired through the service without perturbing
    byte-identity or speed of unobserved runs.

    Warn-and-above events are rate-limited per (event name, 1-second
    window) at the sinks — at most 50 per window; the overflow bumps the
    [log.suppressed] counter.

    A sink that fails with [Sys_error] (closed stderr, full disk) never
    fails the caller: each failure bumps [log.sink_errors], and a failing
    file sink is closed. Any other exception from a text sink installed
    with {!set_text_sink} propagates. *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string

(** Accepts ["debug"], ["info"], ["warn"]/["warning"], ["error"]. *)
val level_of_string : string -> level option

(** [Some l]: text-sink events at [l] and above; [None] (the default):
    text sink off. *)
val set_stderr_level : level option -> unit

(** Replace the text sink (default [prerr_endline]); for tests. *)
val set_text_sink : (string -> unit) -> unit

(** Open (truncate) a JSONL file sink; closes any previous one. Every
    level is written and each line is flushed, so a crashed process
    loses at most the event being written. Raises [Sys_error], with the
    sinks left as they were, when the file cannot be opened. *)
val open_file : string -> unit

val close_file : unit -> unit

(** [emit level ~event msg]: [corr] defaults to the ambient
    {!Recorder.corr}; [fields] are structured payload ([{"fields":...}]
    in JSONL, [k=v] suffixes in text). *)
val emit :
  level ->
  event:string ->
  ?corr:string ->
  ?fields:(string * Tjson.t) list ->
  string ->
  unit

val debug :
  event:string -> ?corr:string -> ?fields:(string * Tjson.t) list -> string -> unit

val info :
  event:string -> ?corr:string -> ?fields:(string * Tjson.t) list -> string -> unit

val warn :
  event:string -> ?corr:string -> ?fields:(string * Tjson.t) list -> string -> unit

val error :
  event:string -> ?corr:string -> ?fields:(string * Tjson.t) list -> string -> unit
