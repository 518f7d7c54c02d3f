(** The event store: every observability event — log events and span
    closures — lands in one buffer per domain, each stamped with a
    monotonic timestamp, its domain id and the correlation id of the job
    it belonged to.

    The store has two retention modes, switched independently:
    - {e flight dumps} ([configure]): each buffer is a ring of the last
      [capacity] events, and [dump] writes them atomically to a JSON file
      when something goes wrong — a worker raises, a job blows its
      deadline, [Supervision_failed] escapes, or a chaos fault fires. The
      dump turns a red CI run or a crashed serve process into a
      replayable post-mortem. [eprec serve] turns it on by default (see
      [--flight-dir] / [--no-flight]).
    - {e trace retention} ([set_trace]): while on, buffers grow and keep
      every event, so [snapshot] holds the whole run for the
      [Chrome_trace] and [Profile] views ([--trace-out], [--profile]).

    With both on, a dump still writes at most [capacity] events per
    domain. With both off (the default) every entry point is a cheap
    no-op — one ref probe — so the recording calls stay unconditionally
    wired through the service, and the buffers are empty.

    This module also owns the ambient {e correlation id} (domain-local
    storage): [Epre_service.Service.run_job] wraps each job in
    [with_corr job_id], so every event logged from that job's dynamic
    extent — through the pool, the pipeline and the harness — carries
    the job id without explicit threading. *)

type entry = {
  ts_ns : int64;  (** monotonic clock reading at [note] time *)
  domain : int;  (** recording domain's id *)
  kind : string;  (** ["log"] or ["span"] *)
  level : string;  (** log level, or ["span"] for span closures *)
  event : string;  (** event name / span name *)
  corr : string option;  (** correlation id (job id), if any *)
  fields : (string * Tjson.t) list;
}

(** Turn flight dumps on, starting from empty buffers: dumps go to
    [<dir>/flightrec-<pid>.json]; each domain keeps its last [capacity]
    (default 256, min 8) events. *)
val configure : ?capacity:int -> dir:string -> unit -> unit

(** Turn flight dumps off. *)
val disable : unit -> unit

(** Switch trace retention. Turning it off cuts each buffer back to the
    flight ring's last [capacity] events, or empties it when flight dumps
    are off. *)
val set_trace : bool -> unit

(** Either mode is on. One ref probe; [note] is a no-op when false. *)
val enabled : unit -> bool

(** {2 Correlation context} *)

(** The current domain's correlation id, if inside [with_corr]. *)
val corr : unit -> string option

(** Run [f] with the correlation id set to [id] on this domain
    (restored on exit, exception-safe). Events noted by [f] — and by
    {!Log} and span closures within it — carry [id] by default. *)
val with_corr : string -> (unit -> 'a) -> 'a

(** {2 Recording and dumping} *)

(** Append an event to the recording domain's buffer. [corr] defaults to
    the ambient correlation id; no-op when disabled. *)
val note :
  ?kind:string ->
  ?level:string ->
  ?corr:string ->
  ?fields:(string * Tjson.t) list ->
  string ->
  unit

(** Every live entry, merged across domains and sorted by timestamp (a
    domain's own entries keep their recording order). Empty when
    disabled. *)
val snapshot : unit -> entry list

val entry_to_json : entry -> Tjson.t

(** Write [<dir>/flightrec-<pid>.json] atomically (temp + rename,
    serialized across domains): schema ["epre/flightrec/v1"], the
    [reason], the triggering [corr] if given, and each domain's last
    [capacity] entries. Returns the path written, or [None] when flight
    dumps are off or the write failed. Bumps the [flightrec.dumps]
    counter. *)
val dump : reason:string -> ?corr:string -> unit -> string option
