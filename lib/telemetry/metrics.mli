(** A process-wide counters registry, keyed by (routine, counter name).

    This generalizes the pipeline's hand-plumbed [routine_stats] record:
    any pass can bump a named counter ([add] / [incr]) without a new field
    threaded through [Pipeline], and every consumer (the CLI's
    [--metrics=json], CI, perfbench) reads one snapshot format.
    Counters accumulate across routines and runs until [reset].

    Domain-safe: every operation is mutex-guarded, so compile-pool worker
    domains ([Epre_service.Pool]) bump counters concurrently without
    racing or losing increments; [snapshot] is an atomic cut. *)

val add : routine:string -> name:string -> int -> unit

val incr : routine:string -> name:string -> unit

(** Current value; 0 when never bumped. *)
val get : routine:string -> name:string -> int

val reset : unit -> unit

(** Test isolation: clear the counters {e and} the {!Histogram}
    registry, so a test's assertions see only its own increments rather
    than depending on global registry state left by earlier suites. *)
val reset_for_testing : unit -> unit

type entry = { routine : string; name : string; value : int }

(** All counters, sorted by routine then name. *)
val snapshot : unit -> entry list

(** One JSON object per line, in [snapshot] order; [""] when empty. *)
val to_jsonl : entry list -> string
