(** Structured tracing for the optimizer: nested wall-clock spans with GC
    allocation and IR size deltas.

    The span API is a zero-cost wrapper unless a recorder is installed:
    [Span.with_] probes one ref cell and otherwise just calls its thunk, so
    an untraced `eprec` run pays no measurable telemetry overhead. With a
    recorder installed (CLI [--trace-out] / [--profile], or a test's
    [with_recorder]), every span records

    - wall-clock start and duration from the monotonic clock (the process
      CPU clock [Sys.time] both under-reports blocked time and lies under
      multicore GC — everything here is monotonic wall clock);
    - the minor-heap allocation delta ([Gc.minor_words]);
    - when the span is given the routine it transforms, the IR size
      (blocks, instructions) before and after;
    - whether the wrapped computation raised (the span still closes — the
      recorder's nesting stays balanced under exceptions).

    Exporters consume the finished span list: [Chrome_trace] (Perfetto /
    chrome://tracing), [Profile] (per-pass text summary), and the
    [Metrics] JSONL stream.

    Domain safety: a recorder accepts spans from any domain — the
    compile-service pool's workers ([Epre_service.Pool]) trace through the
    same recorder as the submitting domain. Each span is stamped with the
    domain that ran it; nesting is time containment among one domain's
    spans, so opening a span takes no lock and only its completion is
    mutex-guarded. *)

(** Monotonic wall clock (nanoseconds since an arbitrary epoch). *)
module Clock : sig
  val now_ns : unit -> int64

  (** Milliseconds elapsed since an earlier [now_ns] reading. *)
  val elapsed_ms : since:int64 -> float
end

type ir_size = { blocks : int; instrs : int }

(** Block and instruction counts of a routine (holes excluded,
    terminators excluded — the shape a pass changes). *)
val measure_routine : Epre_ir.Routine.t -> ir_size

type span = {
  name : string;
  kind : string;  (** e.g. ["pass"], ["routine"], ["pipeline"], ["experiment"] *)
  routine : string option;  (** the routine being transformed, if any *)
  domain : int;  (** id of the domain that ran the span *)
  start_ns : int64;  (** relative to the recorder's epoch *)
  dur_ns : int64;
  alloc_minor_words : float;  (** [Gc.minor_words] delta *)
  ir_before : ir_size option;
  ir_after : ir_size option;
  raised : bool;  (** the wrapped computation raised *)
}

type recorder

(** Install a fresh recorder (replacing any current one) and return it.
    Spans complete into it until [uninstall]. *)
val install : unit -> recorder

val uninstall : unit -> unit

(** A recorder is installed. *)
val enabled : unit -> bool

(** Finished spans in completion order (children before parents); empty
    while spans are still open. *)
val spans : recorder -> span list

(** [install], run, [uninstall] (exception-safe); for tests and scoped
    tracing. *)
val with_recorder : (recorder -> 'a) -> 'a

module Span : sig
  (** [with_ ~name f] runs [f ()] inside a span. No-op (beyond two ref
      probes) when no recorder is installed and the flight recorder
      ({!Recorder}) is disabled. [routine] enables the IR size delta and
      stamps the span with the routine's name. The span closes and is
      recorded even when [f] raises. With the flight recorder enabled,
      every span closure is also noted into its ring (kind ["span"],
      with duration and the ambient correlation id) — even when no trace
      recorder is installed. *)
  val with_ :
    ?kind:string -> ?routine:Epre_ir.Routine.t -> name:string -> (unit -> 'a) -> 'a
end
