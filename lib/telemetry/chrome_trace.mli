(** Chrome trace-event export of the span events in a store snapshot
    ({!Recorder.snapshot}).

    The output is the JSON object format of the Trace Event spec —
    [{"traceEvents": [...], "displayTimeUnit": "ms"}] with one complete
    ("ph":"X") event per span — and loads directly in Perfetto
    (https://ui.perfetto.dev) or chrome://tracing. Timestamps (from the
    earliest span's start) and durations are microseconds (the spec's
    unit) at nanosecond resolution. Each domain that ran spans gets its
    own track ([tid] is the domain id); nesting is carried by the events'
    time containment on their track, with the routine, allocation and IR
    size deltas in each event's [args]. *)

val to_json : Recorder.entry list -> Tjson.t

val to_string : Recorder.entry list -> string

(** Write [to_string] to a file (truncating). *)
val write : path:string -> Recorder.entry list -> unit
