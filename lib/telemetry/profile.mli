(** Text profile summary of the span events in a store snapshot
    ({!Recorder.snapshot}): one row per span name,
    sorted by total wall-clock time, with the share of the profiled total
    — the `--profile` rendering. *)

type row = {
  name : string;
  calls : int;
  total_ms : float;
  mean_us : float;
  alloc_minor_words : float;
  share : float;  (** of the summed total, in percent *)
}

(** Aggregate spans by name. [kind] keeps only spans of that kind
    (default ["pass"], the per-stage spans); when nothing matches the
    filter, all spans are aggregated instead, so a profile of an
    unoptimized run still shows something. *)
val rows : ?kind:string -> Recorder.entry list -> row list

(** Render [rows] as an aligned table with a totals line; a diagnostic
    one-liner when there are no spans at all. *)
val render : ?kind:string -> Recorder.entry list -> string
