(** The rule catalog: every diagnostic the verifier can emit, under a
    stable id.

    Id families: [V0xx] structural/CFG rules, [T0xx] type rules, [L0xx]
    lints, [A0xx] audit findings from the redundancy auditor
    ([Analyze]). Severities are fixed per rule — V/T rules are errors
    (the harness rolls a pass back on them), L rules are warnings
    (surfaced, never fatal unless the caller promotes them with
    [--strict]); A rules split: residual redundancy (A001/A002) is an
    error — the auditor checks those against the engine's own LCM
    placement, so they are precise — while the down-safety delta (A003,
    judged through a conservative register-level must-use proxy) and
    the advisory effectiveness findings (A004–A007) are warnings.
    A-rule errors never roll a pass back — the audited code is still
    correct, just not as good as the paper promises. The
    catalog is the source of truth for [--rules] validation, the DESIGN.md
    rule table, and the per-rule telemetry counters. *)

type t = {
  id : string;
  severity : Diag.severity;
  title : string;  (** one line, for listings and the rule table *)
}

val all : t list

val find : string -> t option

(** [mem id] = the id names a registered rule. *)
val mem : string -> bool

(** Ids of every lint ([L0xx]) rule. *)
val lint_ids : string list

(** Validate a comma-separated [--rules] spec; [Error id] on the first
    unknown id. *)
val parse_spec : string -> (string list, string) result
