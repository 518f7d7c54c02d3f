(** Fixed log-scale bucket histograms (HDR-style, integer nanoseconds),
    sharded per domain and merged deterministically at read time.

    Bucket scheme: 8 sub-buckets per power of two (values 0..7 get exact
    unit buckets), so every bucket's width is at most 1/8 of its lower
    bound — quantiles are exact to within 12.5%. Buckets cover every
    non-negative OCaml int, so nanosecond latencies up to decades fit.

    Recording takes the recording domain's own shard (one of 64 slots,
    the lowest free one, held until the domain exits), whose mutex is
    uncontended in the steady state — workers of the compile-service
    pool ([Epre_service.Pool]) record concurrently without sharing a
    cache line or a lock, and the workers of a later pool reuse the
    shards of an earlier one's. [merged] sums the shards'
    integer bucket counts, so the merged view is independent of which
    domain recorded what in which order.

    Histograms live in a process-wide registry keyed by name — the
    distribution-valued counterpart of the {!Metrics} counter registry,
    read by the same consumers ([Exposition], `--metrics-out`, the serve
    stats line, perfbench's traced per-layer run). *)

(** Total number of buckets. *)
val num_buckets : int

(** Bucket index for a value (negatives clamp to bucket 0). Monotone in
    the value. *)
val bucket_of_value : int -> int

(** Inclusive [(lo, hi)] value range of a bucket index. *)
val bucket_bounds : int -> int * int

type t

(** A standalone histogram (not in the registry). *)
val create : unit -> t

(** Record one value (clamped at 0). Contention-free across domains. *)
val record : t -> int -> unit

(** Deterministic merge of every shard: summed bucket counts, total
    count, sum, and the exact (unbucketed) maximum. *)
type merged = { counts : int array; count : int; sum : int; max_value : int }

val merged : t -> merged

(** [quantile m q] for [q] in [0,1]: the upper edge of the bucket holding
    the rank-[ceil q*n] value, clamped to the exact max — so
    [quantile m 1.0 = m.max_value] and every quantile is within one
    bucket (12.5%) of the exact order statistic. 0 when empty. *)
val quantile : merged -> float -> int

(** Arithmetic mean; 0.0 when empty. *)
val mean : merged -> float

(** {2 Registry} *)

(** Find or create the registered histogram [name]. The lookup is
    lock-free once the name exists. *)
val handle : name:string -> t

(** [record] on [handle ~name]. *)
val observe : name:string -> int -> unit

(** Observe the nanoseconds elapsed since [t0] (a [Clock.now_ns]
    reading) under [name]. *)
val observe_since : name:string -> int64 -> unit

(** Every registered histogram, merged, sorted by name. *)
val snapshot : unit -> (string * merged) list

(** Drop every registered histogram (test isolation; see
    [Metrics.reset_for_testing]). *)
val reset_for_testing : unit -> unit

(** Exact percentile of an ascending-sorted sample: the smallest element
    with at least [ceil p*n] elements at or below it ([0.0] when empty).
    The bench reports and histogram quantiles share this definition. *)
val percentile_of_sorted : float array -> float -> float
