(** Campaign driver — what [eprec fuzz] runs.

    A campaign derives one case seed per run from the master seed (via
    the splittable {!Rng}, so the sequence is a pure function of
    [config.seed]), generates and lowers each program once, checks the
    ILOC with the differential {!Oracle}, optionally reduces each failure
    with {!Reduce}, and persists reproducers through {!Corpus}.

    Everything in the {!summary} is deterministic for a given config —
    no timestamps, no durations — so two invocations of the same
    campaign produce byte-identical JSON (the CI determinism check and
    the acceptance criterion for [eprec fuzz --runs 500 --seed 42]).

    Telemetry: the whole campaign runs in a ["fuzz"] span with one
    ["fuzz-case"] child per generated program, so [--trace-out] /
    [--profile] work on fuzz runs like on any other [eprec] command. *)

type config = {
  runs : int;
  seed : int;  (** master seed; case seeds derive from it *)
  max_size : int;  (** generator statement budget ([--max-size]) *)
  levels : Epre.Pipeline.level list;
  chaos : string option;
      (** [NAME\[@POS\]] fault spliced into every checked level — the
          oracle self-test mode. Must satisfy
          [Epre_harness.Chaos.parse_spec]. *)
  reduce : bool;
  corpus_dir : string option;  (** [None]: don't persist reproducers *)
  fuel : int;
      (** reference-run budget; small (default 1e6) so a reduction
          candidate that loops forever is rejected quickly *)
  pinpoint : bool;  (** bisect each failure to its culprit pass *)
  jobs : int;
      (** domains for oracle checking ([--jobs], the submitting domain
          included); case seeds are
          derived up front and failure handling (logging, reduction,
          corpus writes) stays serial in case order, so every output —
          log lines, summary, corpus — is byte-identical at any job
          count *)
}

(** 200 runs, seed 0, size 30, every level, no chaos, reduction on,
    no corpus dir, fuel 1e6, no pinpointing, 1 job. *)
val default_config : config

(** The reducer's oracle for one failure signature: {!Oracle.check}
    (restricted to [level], no pinpointing) still reports a failure of
    class [cls] on the candidate, and, when the config splices a chaos
    pass, reports none without it, so a reproducer stays one of the
    chaos pass's and cannot slip to a fault of the level itself. *)
val still_fails :
  Oracle.config ->
  level:Epre.Pipeline.level ->
  cls:Oracle.failure_class ->
  Epre_ir.Program.t ->
  bool

type summary = {
  runs : int;
  seed : int;
  chaos : string option;
  cases_failed : int;  (** generated programs with at least one failure *)
  failures : Epre_harness.Harness.record list;
      (** one per (case, level) failure, via {!Oracle.failure_record} —
          seed / level / class / repro provenance in [record.meta] *)
  reduced : int;  (** failures that went through the reducer *)
  saved : string list;  (** corpus entry directories written *)
}

(** [run config] executes the campaign. [log] receives one progress line
    per failing case (and nothing else).
    @raise Invalid_argument when [config.chaos] does not parse — the CLI
    validates first via [Epre_harness.Chaos.parse_spec]. *)
val run : ?log:(string -> unit) -> config -> summary

(** Deterministic verdict document: counts by class plus the failure
    records ([{"runs":..., "seed":..., "chaos":..., "cases_failed":...,
    "reduced":..., "classes":{...}, "failures":[...]}]). *)
val summary_to_json : summary -> string

type replay_result =
  | Still_fails of Oracle.failure_class
  | Class_changed of {
      expected : Oracle.failure_class;
      got : Oracle.failure_class;
    }
  | Fixed  (** the oracle reports nothing — the bug is gone *)
  | Broken of string  (** the reproducer no longer parses as ILOC *)

val replay_result_to_string : replay_result -> string

(** Re-run one corpus entry's reduced reproducer against its stored
    (level, chaos) oracle configuration. [fuel] defaults as in
    {!default_config}. [Error] means the entry itself could not be
    loaded. *)
val replay : ?fuel:int -> string -> (Corpus.entry * replay_result, string) result
