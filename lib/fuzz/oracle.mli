(** The differential oracle — the fuzzer's notion of "this program found a
    bug".

    A candidate program is run through every optimization level of
    [Epre.Pipeline] (optionally with a chaos pass spliced in), each level
    supervised by the harness, and the optimized program's observable
    behaviour (return value and [emit] trace of [main], via the
    interpreter) is compared against the unoptimized reference. Failures
    fall into four classes:

    - {!Pass_exception}: a pass raised;
    - {!Ir_violation}: a pass produced IR the [Epre_verify] verifier
      rejects (the violated rule id is carried in [failure.rule]);
    - {!Behaviour_mismatch}: the optimized program terminates but
      disagrees with the reference (beyond the harness's float
      tolerance);
    - {!Fuel_divergence}: the reference terminates but the optimized
      program exhausts a fuel budget derived from the reference run —
      the optimizer manufactured a (near-)infinite loop.

    Two tiers: the fast tier above runs per check; when
    [config.pinpoint] is set, a failing level is replayed through
    [Harness.Bisect] to name the culprit pass and capture its IR delta. *)

type failure_class =
  | Pass_exception
  | Ir_violation
  | Behaviour_mismatch
  | Fuel_divergence

val class_to_string : failure_class -> string

val class_of_string : string -> failure_class option

type failure = {
  level : Epre.Pipeline.level;
  cls : failure_class;
  pass : string;  (** offending pass when known, otherwise the level name *)
  routine : string;  (** routine it was detected in, or ["<program>"] *)
  detail : string;
  rule : string option;
      (** the verifier rule id behind an {!Ir_violation}, when known *)
  culprit : Epre_harness.Bisect.failure option;  (** pinpoint tier *)
}

type config = {
  levels : Epre.Pipeline.level list;
  chaos : (int * Epre_harness.Harness.named_pass) option;
      (** a fault spliced at a 0-based position into every level's
          sequence — the self-test mode: the oracle must catch it *)
  chaos_name : string option;  (** its CLI spelling, for provenance *)
  fuel : int;  (** budget for the reference interpretation *)
  pinpoint : bool;
}

(** Every level, no chaos, [Interp.default_fuel], no pinpointing. *)
val default_config : config

(** The unoptimized program's observation, with the fuel budget for
    re-checking each optimized level derived from its run. It reads only
    [config.fuel], so checks that differ in levels or chaos can share
    one. *)
type reference

val reference : config -> Epre_ir.Program.t -> reference

(** Empty list = the program survives every level. The input program is
    not modified (each level runs on a copy). A program whose {e
    reference} run already fails (out of fuel before any optimization)
    yields no failures — the oracle cannot differentiate it.
    [reference] (by default [reference config prog]) must be of [prog]
    at [config.fuel]. *)
val check : ?reference:reference -> config -> Epre_ir.Program.t -> failure list

(** The failure as a harness record: [outcome = Rolled_back], with the
    oracle's provenance ([fuzz_seed], [fuzz_level], [fuzz_class], the
    verifier rule id as [fuzz_rule] for IR violations, chaos spelling and
    reproducer path when given) in [record.meta] — one Tjson schema for
    supervised-run reports and fuzz verdicts. The meta keys round-trip
    through the corpus's [meta.json]. *)
val failure_record :
  seed:int -> ?chaos:string -> ?repro:string -> failure -> Epre_harness.Harness.record
