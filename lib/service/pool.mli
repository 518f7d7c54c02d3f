(** A fixed-size pool of OCaml 5 domains sharing one FIFO task queue —
    the compile service's parallelism substrate.

    A batch submitted with [map] is appended to the queue under the
    pool's mutex; workers take the oldest task under the same mutex and
    wait on its condition variable while the queue is empty. The
    submitter helps execute queued tasks while it waits for its batch (so
    nested [map] calls from inside a task cannot deadlock the pool).

    Sizing: [jobs] counts every domain that runs tasks, the submitter
    included, so a pool of [jobs] spawns [jobs - 1] workers. The
    submitter is busy for the whole batch, so spawning [jobs] workers
    would put [jobs + 1] runnable domains on [jobs] cores. Every OCaml 5
    minor collection stops all domains, and one the kernel has
    descheduled then stalls the rest: on a 2-core host the benchmark's
    serve traffic ran at ~520 jobs/s on two spawned workers and ~950 on
    one.

    The traffic is flat: [Service.serve] submits batches of
    [max 32 (4 * size)] independent, millisecond-scale jobs, and
    [workloads --check] and [fuzz --jobs] one batch each. One lock round
    trip per task is noise at that grain, so the queue needs no
    per-worker sharding.

    Ordering: [map] returns results indexed exactly like its input —
    execution order is nondeterministic, result order is not. Combined
    with the independence of its tasks (serve jobs, workloads, fuzz
    cases), this keeps parallel output byte-identical to the serial
    path.

    A pool of [jobs <= 1] spawns no domains: [map] runs inline on the
    caller, the one-domain case of the sizing rule and the reference
    serial path that `--jobs 1` and the benchmark baselines compare
    against.

    Safety contract for tasks: they may mutate only state reachable from
    their own input element (distinct jobs) plus the
    domain-safe [Epre_telemetry] registries. Tasks must not submit to a
    *different* pool that is itself waiting on this one. *)

type t

(** [create ~jobs ()]: [jobs] domains run tasks, the submitter one of
    them — [jobs >= 2] spawns [jobs - 1] worker domains; [jobs <= 1]
    creates an inline pool with no domains. *)
val create : jobs:int -> unit -> t

(** [Domain.recommended_domain_count ()] — the default for every [--jobs]
    flag. *)
val default_jobs : unit -> int

(** Number of spawned worker domains: [jobs - 1], or 0 for an inline
    pool. *)
val size : t -> int

(** Per-element result of {!map_outcomes}. *)
type 'a outcome =
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace  (** the application raised *)

(** [map_outcomes pool f arr] applies [f] to every element on the pool and
    returns one {!outcome} per element, in input order, once the whole
    batch has drained. The call itself never raises and never loses an
    element: a failure is contained to its own slot. *)
val map_outcomes : t -> ('a -> 'b) -> 'a array -> 'b outcome array

(** [map pool f arr] applies [f] to every element on the pool and returns
    the results in input order. If one or more applications raise, the
    lowest-indexed exception is re-raised after the whole batch has
    drained (no task of the batch is left running). *)
val map : t -> ('a -> 'b) -> 'a array -> 'b array

(** [map] over a list. *)
val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

(** Cumulative wall-clock busy time. [busy_ns.(i)] is worker [i]'s time
    spent executing tasks since creation; [helper_busy_ns] is task time
    executed by submitters while waiting. For an inline pool all time
    lands in [helper_busy_ns]. *)
type stats = { busy_ns : int64 array; helper_busy_ns : int64 }

val stats : t -> stats

(** Stop and join every worker domain. Must not be called while a batch
    is outstanding. Idempotent. *)
val shutdown : t -> unit

(** [create], run, [shutdown] (exception-safe). *)
val with_pool : jobs:int -> (t -> 'a) -> 'a
