(** The optimizer pipelines of the paper's experimental study (Section 4).

    Four levels, each a strict extension of the previous:
    - [Baseline]: constant propagation, peephole, DCE, coalescing,
      empty-block removal;
    - [Partial]: naming normalization and PRE, then the baseline sequence;
    - [Reassociation]: global reassociation (no distribution) and GVN
      before PRE and the rest;
    - [Distribution]: reassociation including distribution of [*] over
      [+].

    Every pass consumes and produces ILOC, like the Unix-filter passes of
    the paper's optimizer; passes that need SSA build and destroy it
    internally. Every pass runs from one table, {!table}, under its
    registry name ([Epre.Passes] adds the [chaos:*] faults): a level is a
    registry spelling ({!level_spelling}), and [--passes], the paper
    experiments and the examples run registry spellings through
    {!run_passes}.

    A sequence runs bare and routine-major (the levels' [optimize] and
    registry sequences' [run_passes] share one loop; a broken pass aborts
    the run, [Routine.validate] checks each routine after its last pass)
    or checked and pass-major ([optimize_supervised], over
    [Epre_harness.Harness.supervise]: each application is checkpointed,
    verified and rolled back on failure).

    Each (routine, pass) application closes a ["pass"] span, which times
    the [pass.<name>] histogram; spans are kept while
    [Epre_telemetry.Recorder] records. A level's per-routine statistics
    are mirrored into the always-live [Epre_telemetry.Metrics] registry
    (names like ["constprop.constants_folded"]). *)

open Epre_ir

type level = Baseline | Partial | Reassociation | Distribution

val all_levels : level list

val level_to_string : level -> string

val level_of_string : string -> level option

(** Per-routine statistics: what each pass did, summed over its runs (a
    group stays [None] until its pass first runs). One table in the
    implementation declares each statistic once (its JSON key, its
    [Epre_telemetry.Metrics] counter names and, for a group, the
    conversion to and from its pass's typed stats); the JSON codec,
    {!counters}, the merge and the CLI's [--stats] line fold over it. *)
type routine_stats = {
  routine : string;
  mutable reassoc : Epre_reassoc.Reassociate.stats option;
  mutable gvn : Epre_gvn.Gvn.stats option;
  mutable pre : Epre_pre.Pre.stats option;
  mutable exprs_renamed : int;
      (** evaluation sites rewritten by [Naming] (Partial level only) *)
  mutable constants_folded : int;
  mutable peephole_rewrites : int;
  mutable dce_removed : int;
  mutable copies_coalesced : int;
}

(** Zeroed statistics for the named routine. *)
val fresh_stats : string -> routine_stats

(** The routine's ([Metrics] name, value) pairs in table order, e.g.
    [("pre.rounds", 5)]; a group its pass never ran has none. *)
val counters : routine_stats -> (string * int) list

(** One-line-per-routine JSON records of [routine_stats]
    ([{"type":"routine_stats","routine":...,...}]), encoded with
    [Epre_telemetry.Tjson] — the `--metrics=json` / CI format. *)
val stats_to_json : routine_stats -> Epre_telemetry.Tjson.t

val stats_jsonl : routine_stats list -> string

(** Strict inverse of [stats_to_json]; [None] on any missing or mistyped
    field. The compile-service cache ([Epre_service.Cache]) replays
    recorded statistics through this instead of re-running the pipeline. *)
val stats_of_json : Epre_telemetry.Tjson.t -> routine_stats option

(** Add {!counters} to the [Epre_telemetry.Metrics] registry — what
    [optimize] does after each routine. Exposed so a cache hit replays
    the same counter increments a recompile would have produced. *)
val record_metrics : routine_stats -> unit

(** Names the transformation a level performs: the level and its exact
    stage sequence, versioned. One half of the compile-service cache key
    (the other is the routine's canonical ILOC text) — any change to a
    level's pipeline changes its fingerprint and invalidates cached
    results. *)
val fingerprint : level:level -> string

val reassoc_config : distribute:bool -> Epre_reassoc.Expr_tree.config

(** A registry pass: its command-line name, a one-line description, the
    step that runs it on a routine and adds its statistic (if it has
    one) to the routine's statistics, and what the harness checks after
    it (postcondition lints, audit, certifying checker). *)
type entry = {
  name : string;
  description : string;
  step : routine_stats -> Routine.t -> unit;
  checks : Epre_harness.Harness.checks;
}

(** Every optimizer pass, in [eprec passes] order: the only place a pass
    runs to build a sequence. *)
val table : entry list

(** A level's sequence as registry names (e.g. [Baseline]:
    [constprop; peephole-shift; dce; coalesce; clean]). Run by
    {!run_passes}, it prints the ILOC {!optimize} does. *)
val level_spelling : level:level -> string list

(** A level's pass sequence under its stage names (with their registry
    rows' checks), for the harness, bisection, and chaos-injection
    experiments. Statistics are discarded; use
    [optimize]/[optimize_supervised] to collect them. *)
val level_passes : level:level -> Epre_harness.Harness.named_pass list

(** Whether the level runs PRE: some stage's checks arm the auditor's
    residue errors (A001/A002), as auditing its output must too. *)
val expects_pre : level:level -> bool

(** The stage names of a level's sequence, in pass order: each stage is
    labelled by its registry name, except that [reassociate] and
    [distribute] are the ["reassociation"] stage and [peephole-shift] is
    the ["peephole"] stage. What the compile service's circuit breakers
    match opened passes against, and half of {!fingerprint}. *)
val level_stages : level:level -> string list

(** The next rung down the degradation ladder ([Distribution] →
    [Reassociation] → [Partial] → [Baseline] → [None]). Each level is a
    strict extension of the one below, so stepping down only removes
    passes — the compile service re-attempts failing jobs down this
    chain. *)
val lower : level -> level option

(** Insert a pass at a 0-based position (clamped to the sequence). *)
val splice :
  Epre_harness.Harness.named_pass list ->
  at:int ->
  Epre_harness.Harness.named_pass ->
  Epre_harness.Harness.named_pass list

(** [splice] each (position, pass) into the sequence, in order — how a
    [--chaos] fault (or any extra pass) joins a level's or a registry
    sequence, for the CLI, the fuzz oracle and {!optimize_supervised}. *)
val inject_faults :
  (int * Epre_harness.Harness.named_pass) list ->
  Epre_harness.Harness.named_pass list ->
  Epre_harness.Harness.named_pass list

(** Optimize one routine in place. [dump name r] observes the routine
    after each stage, named as in {!level_stages} (IR tracing; the
    Figures 2-10 walkthrough uses it). [poll] is called before every pass
    and may raise to abandon the remaining passes (the compile service's
    deadline enforcement): the routine is then left at a pass boundary,
    never mid-transformation. [wrap] transforms the level's pass list
    before it runs (default: identity) — the compile service uses it to
    plant [chaos:pass-poison] and to attribute per-pass failures;
    wrapped passes must keep their [pass_name]s for spans and histograms
    to stay meaningful. *)
val optimize_routine :
  ?dump:(string -> Routine.t -> unit) ->
  ?poll:(unit -> unit) ->
  ?wrap:
    (Epre_harness.Harness.named_pass list -> Epre_harness.Harness.named_pass list) ->
  level:level ->
  Routine.t ->
  routine_stats

(** Run a pass sequence (registry passes, [Epre.Passes]) over every
    routine in place, through the levels' routine-major runner; no
    statistics; [dump] fires after each pass, under its registry name.
    @raise Routine.Ill_formed when a routine fails its end validation; a
    pass's own exception propagates. *)
val run_passes :
  ?dump:(string -> Routine.t -> unit) ->
  Epre_harness.Harness.named_pass list -> Program.t -> unit

(** Optimize a whole program in place; per-routine statistics. *)
val optimize :
  ?dump:(string -> Routine.t -> unit) -> level:level -> Program.t -> routine_stats list

(** Copy, optimize the copy, return it with the stats. *)
val optimized_copy :
  ?dump:(string -> Routine.t -> unit) -> level:level -> Program.t ->
  Program.t * routine_stats list

(** Optimize in place under harness supervision: every (pass, routine)
    application runs against a checkpoint, is validated at the tier in
    [config], and is rolled back on failure while the rest of the sequence
    continues. [inject] splices extra passes — typically
    [Epre_harness.Chaos] faults — into the sequence at the given 0-based
    positions (clamped). Returns the per-routine statistics and the
    per-application outcome records in execution order. Statistics a
    rolled-back pass added stay in [routine_stats].
    @raise Epre_harness.Harness.Supervision_failed on the first rollback
    when [config.keep_going] is false. *)
val optimize_supervised :
  ?dump:(string -> Routine.t -> unit) ->
  ?inject:(int * Epre_harness.Harness.named_pass) list ->
  config:Epre_harness.Harness.config ->
  level:level ->
  Program.t ->
  routine_stats list * Epre_harness.Harness.record list

