(** The span store: while a trace records ([set_trace true]), every span
    closure ({!Telemetry.Span}) lands in one buffer per domain, stamped
    with a monotonic timestamp and its domain id, so [snapshot] holds the
    whole run for the [Chrome_trace] and [Profile] views ([--trace-out],
    [--profile]).

    With the trace off (the default) every entry point is a cheap no-op —
    one ref probe — so the recording calls stay unconditionally wired
    through the service, and the buffers are empty. Log events never
    land here: they go to the {!Log} sinks.

    This module also owns the ambient {e correlation id} (domain-local
    storage): [Epre_service.Service.run_job] wraps each job in
    [with_corr job_id], so every event logged in that job's dynamic
    extent — through the pool, the pipeline and the harness — carries
    the job id without explicit threading. *)

type entry = {
  ts_ns : int64;  (** monotonic clock reading at [note] time *)
  domain : int;  (** recording domain's id *)
  event : string;  (** span name *)
  fields : (string * Tjson.t) list;
}

(** Switch trace retention. Turning it off empties the buffers. *)
val set_trace : bool -> unit

(** A trace records. One ref probe; [note] is a no-op when false. *)
val enabled : unit -> bool

(** {2 Correlation context} *)

(** The current domain's correlation id, if inside [with_corr]. *)
val corr : unit -> string option

(** Run [f] with the correlation id set to [id] on this domain
    (restored on exit, exception-safe). Log events emitted by [f] carry
    [id] by default. *)
val with_corr : string -> (unit -> 'a) -> 'a

(** {2 Recording} *)

(** Append an entry to the recording domain's buffer; no-op when no
    trace records. *)
val note : ?fields:(string * Tjson.t) list -> string -> unit

(** Every entry, merged across domains and sorted by timestamp (a
    domain's own entries keep their recording order). Empty when no
    trace records. *)
val snapshot : unit -> entry list
