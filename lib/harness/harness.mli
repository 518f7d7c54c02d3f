(** Supervised pass execution — the fault-tolerant replacement for running
    optimizer passes bare.

    The paper's optimizer is a chain of Unix filters: one ill-formed ILOC
    output poisons every downstream pass. The harness runs each pass
    against a checkpoint instead. A pass that raises, breaks IR
    well-formedness, or changes the program's observable behaviour is
    rolled back and recorded; the remaining passes still run — graceful
    degradation in the style of a production compiler's per-pass bailout.

    Validation tiers, each containing the previous:
    - [Off]: trust the pass; only exceptions roll back;
    - [Ir]: the full [Epre_verify] verifier — structural and type rules
      (including [Ssa_check] as rule V007 when the routine is in SSA)
      plus the pass's registered postcondition lints; the first
      error-severity diagnostic rolls back, warnings are counted into the
      record's [meta];
    - [Exec]: translation validation — interpret the program's observable
      behaviour (return value and [emit] trace from [main], under bounded
      fuel) before and after the pass and require them to agree up to
      floating-point reassociation noise. *)

open Epre_ir

type validation = Off | Ir | Exec

val validation_of_string : string -> validation option

val validation_to_string : validation -> string

(** Why a pass application was rolled back. *)
type reason =
  | Pass_exception of string  (** the pass raised *)
  | Ir_violation of string  (** the [Epre_verify] verifier reported an error *)
  | Behaviour_mismatch of string  (** translation validation failed *)

val reason_to_string : reason -> string

type outcome = Passed | Rolled_back of reason

(** One per (pass, routine) application, in execution order. *)
type record = {
  pass : string;
  routine : string;
  outcome : outcome;
  duration_ms : float;
      (** wall clock on the telemetry monotonic clock (pass run plus
          validation and any rollback), not process CPU time *)
  meta : (string * Epre_telemetry.Tjson.t) list;
      (** extra provenance rendered verbatim into the JSON report —
          [supervise] records the verifier rule id behind an IR rollback
          ([verify_rule]) and the verifier warning count on success
          ([verify_warnings]); the fuzzer's differential oracle attaches
          the generator seed, optimization level and reproducer path so
          fuzz verdicts and supervised-run reports share one schema *)
}

type config = {
  validation : validation;
  fuel : int;
      (** interpreter budget for the reference run of translation
          validation; post-pass runs get [4 * reference + 10_000], so a
          pass that introduces an infinite loop is caught quickly *)
  keep_going : bool;
      (** [true] (the [--safe] mode): roll back and continue with the
          remaining passes; [false]: roll back, then raise
          [Supervision_failed] *)
  audit : bool;
      (** run the redundancy auditor ([Epre_verify.Analyze]) after each
          audited pass, against the pre-pass snapshot. Findings are
          recorded in the record's meta ([audit_findings] count,
          [audit_rules] ids) and as [analyze.*] telemetry counters;
          they never roll a pass back *)
}

(** [Ir] validation, [Interp.default_fuel], [keep_going = true], audit
    off. *)
val default_config : config

exception Supervision_failed of record

(** A pass under its registry/pipeline name — the harness's view of a
    pass; [Epre.Passes] and [Epre.Pipeline] both convert into it. *)
type named_pass = { pass_name : string; run : Routine.t -> unit }

(** Observable behaviour of a program's [main]: either a (return value,
    emit trace) pair or the textual reason it could not be obtained. *)
type obs = (Value.t option * Value.t list, string) result

val observe : fuel:int -> Program.t -> obs

(** [observe] plus the run's dynamic operation count when it succeeded —
    the harness and [Bisect] derive a bounded re-check budget from it. *)
val observe_counted : fuel:int -> Program.t -> obs * int option

(** Value equality up to floating-point reassociation noise: exact
    {!Value.equal} (so NaN equals NaN and an infinity equals itself),
    else finite floats within a relative 1e-9. The differential test
    suite uses the same test. *)
val value_close : Value.t -> Value.t -> bool

(** {!value_close} on the return value and on every emitted value;
    errors compare by text. *)
val obs_equal : obs -> obs -> bool

(** One-line rendering ("return 42, 13 emits" / the error text) for
    diagnostics and mismatch reasons. *)
val describe_obs : obs -> string

(** Run every pass over every routine of the program, pass-major,
    checkpointing each (pass, routine) application and rolling back on
    failure. [dump name r] fires after each application (after the
    rollback, if one happened). Returns the per-application records in
    execution order.
    @raise Supervision_failed on the first rollback when
    [config.keep_going] is false (the routine is restored first). *)
val supervise :
  ?dump:(string -> Routine.t -> unit) ->
  config ->
  passes:named_pass list ->
  Program.t ->
  record list

(** [rolled_back records] keeps only the failures. *)
val rolled_back : record list -> record list
