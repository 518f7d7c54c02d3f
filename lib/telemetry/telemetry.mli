(** Structured tracing for the optimizer: nested wall-clock spans with GC
    allocation and IR size deltas.

    A span's close is the one source of its timing. It reads the
    monotonic clock twice (the process CPU clock [Sys.time] both
    under-reports blocked time and lies under multicore GC — everything
    here is monotonic wall clock) and feeds
    - the histogram named by [~hist], if any, with its duration;
    - the span store ({!Recorder}), while a trace records, with one
      event.

    With neither, [Span.with_] probes two refs and just calls its thunk,
    so an untraced `eprec` run pays no measurable telemetry overhead.

    A span event's name is the span's name and its fields are
    - [kind] (e.g. ["pass"], ["routine"], ["pipeline"], ["cache"]);
    - [start_ns] (monotonic clock at open) and [dur_ns];
    - [alloc_minor_words], the [Gc.minor_words] delta;
    - when the span is given the routine it transforms, [routine] and
      its IR size before and after: [blocks_before], [blocks_after],
      [instrs_before], [instrs_after] (holes and terminators excluded);
    - [raised: true] when the wrapped computation raised (the span still
      closes, so nesting stays balanced under exceptions).

    The views read these events from [Recorder.snapshot]:
    [Chrome_trace] (Perfetto / chrome://tracing) and [Profile] (the
    per-pass text summary).

    Domain safety: spans open and close on any domain — the
    compile-service pool's workers ([Epre_service.Pool]) trace into the
    same store as the submitting domain. Each event lands in its own
    domain's buffer; nesting is time containment among one domain's
    spans. *)

(** Monotonic wall clock (nanoseconds since an arbitrary epoch). *)
module Clock : sig
  val now_ns : unit -> int64

  (** Milliseconds elapsed since an earlier [now_ns] reading. *)
  val elapsed_ms : since:int64 -> float
end

module Span : sig
  (** [with_ ~name f] runs [f ()] inside a span. [routine] adds the IR
      size delta and stamps the span with the routine's name; [hist]
      names the histogram its duration is observed into. The span closes
      and is recorded even when [f] raises. *)
  val with_ :
    ?kind:string ->
    ?routine:Epre_ir.Routine.t ->
    ?hist:string ->
    name:string ->
    (unit -> 'a) ->
    'a

  (** [with_] that also returns the span's duration in nanoseconds, for
      a caller that reports it; the clock is read even when nothing
      records. *)
  val timed :
    ?kind:string ->
    ?routine:Epre_ir.Routine.t ->
    ?hist:string ->
    name:string ->
    (unit -> 'a) ->
    'a * int
end

(** {2 Span event fields} (0, 0.0 or [""] when absent) *)

val int_field : Recorder.entry -> string -> int

val float_field : Recorder.entry -> string -> float

val str_field : Recorder.entry -> string -> string
