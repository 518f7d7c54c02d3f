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
    internally.

    A level's sequence runs either bare ([optimize] — one broken pass
    aborts the run) or supervised ([optimize_supervised] — each pass is
    checkpointed, validated, and rolled back on failure; see
    [Epre_harness.Harness]).

    Both entry points are traced: when a telemetry recorder is installed
    ([Epre_telemetry.Telemetry]), each run opens a ["pipeline"] span and
    one ["pass"] span per (routine, stage), and the per-routine statistics
    are mirrored into the [Epre_telemetry.Metrics] counters registry
    (names like ["constprop.constants_folded"]; the registry is live even
    without a recorder). *)

open Epre_ir

type level = Baseline | Partial | Reassociation | Distribution

val all_levels : level list

val level_to_string : level -> string

val level_of_string : string -> level option

type routine_stats = {
  routine : string;
  reassoc : Epre_reassoc.Reassociate.stats option;
  gvn : Epre_gvn.Gvn.stats option;
  pre : Epre_pre.Pre.stats option;
  exprs_renamed : int;
      (** evaluation sites rewritten by [Naming] (Partial level only) *)
  constants_folded : int;
  peephole_rewrites : int;
  dce_removed : int;
  copies_coalesced : int;
}

(** One-line-per-routine JSON records of [routine_stats]
    ([{"type":"routine_stats","routine":...,...}]), encoded with
    [Epre_telemetry.Tjson] — the `--metrics=json` / CI format. *)
val stats_to_json : routine_stats -> Epre_telemetry.Tjson.t

val stats_jsonl : routine_stats list -> string

(** Strict inverse of [stats_to_json]; [None] on any missing or mistyped
    field. The compile-service cache ([Epre_service.Cache]) replays
    recorded statistics through this instead of re-running the pipeline. *)
val stats_of_json : Epre_telemetry.Tjson.t -> routine_stats option

(** Mirror a routine's statistics into the [Epre_telemetry.Metrics]
    counters registry — what [optimize] does after each routine. Exposed
    so a cache hit replays the same counter increments a recompile would
    have produced. *)
val record_metrics : routine_stats -> unit

(** Names the transformation a level performs: the level and its exact
    stage sequence, versioned. One half of the compile-service cache key
    (the other is the routine's canonical ILOC text) — any change to a
    level's pipeline changes its fingerprint and invalidates cached
    results. *)
val fingerprint : level:level -> string

(** [dump] observes the routine after each named stage (IR tracing; the
    Figures 2-10 walkthrough uses it). Stage names: ["naming"],
    ["reassociation"], ["gvn"], ["pre"], ["constprop"], ["peephole"],
    ["dce"], ["coalesce"], ["clean"]. *)
type hooks = { dump : string -> Routine.t -> unit }

val no_hooks : hooks

val reassoc_config : distribute:bool -> Epre_reassoc.Expr_tree.config

(** A level's pass sequence under its stage names, for the harness,
    bisection, and chaos-injection experiments. Statistics are discarded;
    use [optimize]/[optimize_supervised] to collect them. *)
val level_passes : level:level -> Epre_harness.Harness.named_pass list

(** Just the stage names of a level's sequence, in pass order — what the
    compile service's circuit breakers match opened passes against. *)
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

(** Optimize one routine in place. [poll] is called before every pass and
    may raise to abandon the remaining passes (the compile service's
    deadline enforcement): the routine is then left at a pass boundary,
    never mid-transformation. [wrap] transforms the level's pass list
    before it runs (default: identity) — the compile service uses it to
    excise breaker-opened passes and to attribute per-pass failures;
    wrapped passes must keep their [pass_name]s for spans and histograms
    to stay meaningful. *)
val optimize_routine :
  ?hooks:hooks ->
  ?poll:(unit -> unit) ->
  ?wrap:
    (Epre_harness.Harness.named_pass list -> Epre_harness.Harness.named_pass list) ->
  level:level ->
  Routine.t ->
  routine_stats

(** Optimize a whole program in place; per-routine statistics. *)
val optimize : ?hooks:hooks -> level:level -> Program.t -> routine_stats list

(** Copy, optimize the copy, return it with the stats. *)
val optimized_copy :
  ?hooks:hooks -> level:level -> Program.t -> Program.t * routine_stats list

(** Optimize in place under harness supervision: every (pass, routine)
    application runs against a checkpoint, is validated at the tier in
    [config], and is rolled back on failure while the rest of the sequence
    continues. [inject] splices extra passes — typically
    [Epre_harness.Chaos] faults — into the sequence at the given 0-based
    positions (clamped). Returns the per-routine statistics and the
    per-application outcome records in execution order.
    @raise Epre_harness.Harness.Supervision_failed on the first rollback
    when [config.keep_going] is false. *)
val optimize_supervised :
  ?hooks:hooks ->
  ?inject:(int * Epre_harness.Harness.named_pass) list ->
  config:Epre_harness.Harness.config ->
  level:level ->
  Program.t ->
  routine_stats list * Epre_harness.Harness.record list

