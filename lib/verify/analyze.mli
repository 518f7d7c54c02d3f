(** The redundancy auditor's verifier-side driver: runs
    [Epre_analysis.Audit] over routines and programs, converts its
    findings to [Diag.t] diagnostics under the [A0xx] rule family, and
    gives the harness's audit tier its post-pass check.

    Division of labour: [Audit] measures (dataflow, value numbering,
    pressure) and knows nothing about severities or diagnostics;
    this module owns the catalog mapping, the structural-soundness
    guard (a routine with fatal structural defects is skipped — the
    V rules already cover it), and the JSON/telemetry plumbing. *)

open Epre_ir
module Audit = Epre_analysis.Audit

(** Audit one routine. Returns the raw report paired with its findings
    as diagnostics (severities from the [Rules] catalog, sorted by
    [Diag.compare]). [None] when the routine is not structurally sound
    or is still in SSA form (the auditor's systems assume executable
    three-address code). [expect_pre] arms A001/A002; [baseline] arms
    A003/A004/A005 (see [Audit.run]). *)
val check_routine :
  ?expect_pre:bool ->
  ?baseline:Routine.t ->
  Routine.t ->
  (Audit.report * Diag.t list) option

(** Audit every routine of [p]. Baselines are matched by routine name in
    [baseline]; routines without a match are audited without delta
    rules. Returns per-routine reports (skipped routines omitted) and
    all diagnostics. *)
val check_program :
  ?expect_pre:bool ->
  ?baseline:Program.t ->
  Program.t ->
  (string * Audit.report) list * Diag.t list

(** Audit [r] after a pass against the pre-pass [baseline]: the
    diagnostics of {!check_routine}, [] when the routine is skipped.
    The harness calls it after a pass whose [checks.audit] is
    [Some expect_pre] (declared on the pass's row of
    [Epre.Pipeline.table]): after a PRE-level pass the residue errors
    A001/A002 apply; after the enabling transformations only the delta
    and advisory rules do. Audit findings never roll a pass back, unlike
    the lint postconditions, which roll into [--strict]. *)
val check_post_pass :
  expect_pre:bool -> baseline:Routine.t -> Routine.t -> Diag.t list

(** Machine form of a report for [--json]: classification and
    down-safety per site, per-block pressure, pressure/speculation
    deltas when a baseline was supplied, and the residual score. *)
val report_to_tjson :
  routine:string -> Audit.report -> Epre_telemetry.Tjson.t

(** Bump the [analyze.<rule>] telemetry counter (keyed by the
    diagnostic's routine) for each diagnostic. *)
val record_metrics : Diag.t list -> unit
