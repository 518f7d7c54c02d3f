(** The pass registry: every optimizer pass under its command-line name,
    powering [eprec --passes] and mirroring the paper's
    passes-as-Unix-filters architecture. It is [Pipeline.table] (which
    also spells the levels) plus the [chaos:*] faults; the paper
    experiments and the examples run spellings in the same names.

    The registry only names and resolves passes; it does not run them.
    A parsed sequence goes through {!to_named} to one of the two runners
    the levels use: [Pipeline.run_passes] (routine-major, bare, validated
    once per routine at the end) or [Epre_harness.Harness.supervise]
    (pass-major, checked after every application: [--safe], [bisect]). *)

(** Every registry row: [Pipeline.table], then one row per chaos kind,
    whose checks are [Epre_harness.Harness.no_checks]. *)
val all : Pipeline.entry list

val find : string -> Pipeline.entry option

(** True for the [chaos:*] fault-injection entries, which corrupt IR on
    purpose (they exist to exercise [Epre_harness.Harness]). *)
val is_chaos : Pipeline.entry -> bool

(** A registry pass as the harness sees it, with its row's checks; its
    statistics are discarded. *)
val to_named : Pipeline.entry -> Epre_harness.Harness.named_pass

(** Resolve a comma-separated sequence; [Error name] on the first unknown
    pass. *)
val parse_sequence : string -> (Pipeline.entry list, string) result

(** A known-good comma-separated spelling as named passes, for [run_passes]
    drivers. @raise Invalid_argument on an unknown pass. *)
val named : string -> Epre_harness.Harness.named_pass list
