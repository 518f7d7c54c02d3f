(** Prometheus-style text exposition of the {!Metrics} counters and the
    {!Histogram} registry, written atomically for a file-based scraper
    (`eprec serve --metrics-out FILE`).

    Format (one sample per line, [#] comments):

    {v
    # TYPE epre_counter counter
    epre_counter{routine="<service>",name="serve.ok"} 42
    # TYPE epre_hist_ns summary
    epre_hist_ns{name="serve.job",quantile="0.5"} 1310719
    epre_hist_ns{name="serve.job",quantile="0.9"} 2097151
    epre_hist_ns{name="serve.job",quantile="0.99"} 2621439
    epre_hist_ns_max{name="serve.job"} 2500210
    epre_hist_ns_count{name="serve.job"} 128
    epre_hist_ns_sum{name="serve.job"} 171244032
    v}

    Histogram samples are nanoseconds; quantiles come from
    {!Histogram.quantile} (within one log-scale bucket, 12.5%, of the
    exact order statistic). *)

(** The current registries, rendered. *)
val render : unit -> string

(** [render] to [path] via temp-write + rename: readers see either the
    previous exposition or the whole new one, never a torn file. A write
    that fails with [Sys_error] removes its temp file, bumps the
    [metrics.write_failed] counter and returns; it never raises. *)
val write : path:string -> unit

type sample = { metric : string; labels : (string * string) list; value : float }

(** Parse an exposition document back into its samples (comments and
    blank lines skipped). Strict: any malformed line is an [Error]. *)
val parse : string -> (sample list, string) result
