(** The verifier driver: structural ([V0xx]), type ([T0xx]) and lint
    ([L0xx]) rules over a routine or program, plus the post-pass verdict
    the harness's IR validation tier runs (each pass's postcondition
    lints are declared on its row of [Epre.Pipeline.table]).

    Rule ordering inside one routine: the structural scan runs first, and
    its fatal subset (missing entry, dangling terminator target, register
    out of range) short-circuits everything else — the later rules index
    arrays by block id and register and would only crash or cascade.
    SSA routines then go through [Ssa_check] (rule V007); non-SSA
    routines through the definite-assignment analysis (rule V008). Type
    rules run on every structurally sound routine; lints only when the
    configuration asks for them. *)

open Epre_ir

type config = {
  rules : string list option;
      (** restrict output to these rule ids; [None] = all *)
  include_lints : bool;  (** run [L0xx] rules too *)
}

(** V and T rules only, all of them. *)
val default : config

(** Everything, lints included. *)
val lint_config : config

(** No fatal structural defect (missing entry, dangling terminator
    target, register out of range) — the precondition for any analysis
    that indexes arrays by block id or register, including the
    redundancy auditor ([Analyze]). *)
val structurally_sound : Routine.t -> bool

(** Diagnostics for every routine, in [Diag.compare] order per routine,
    with one shared type-inference fixpoint. *)
val check_program : ?config:config -> Program.t -> Diag.t list

(** The routine-only part of a verdict, the V rules: either the fatal
    structural subset, which short-circuits everything else, or the
    remaining structural rules plus the flow rule (V007 in SSA, V008
    outside). A pure function of the fields {!Routine.equal} compares,
    so it holds for any routine equal to the one it was computed on. *)
type v_part

val v_part : Routine.t -> v_part

(** A routine's post-pass verdict from its V part: the program-dependent
    T rules under [tc] (the inference of the program the routine sits
    in) plus the postcondition lints [post] (rule ids; the harness passes
    the pass's [checks.post]), joined to the V part in [Diag.compare]
    order; just the fatal diagnostics when the V part holds a fatal
    defect. *)
val post_pass_verdict :
  post:string list -> tc:Typecheck.info -> v_part -> Routine.t -> Diag.t list

(** What the harness's IR tier decides after a pass with postcondition
    lints [post]: all V/T rules plus those lints —
    [post_pass_verdict ~post ~tc:(Typecheck.infer program) (v_part r) r].
    [Harness.supervise] computes the same two parts, reusing each across
    steps that could not have changed it. *)
val check_post_pass : post:string list -> program:Program.t -> Routine.t -> Diag.t list

val errors : Diag.t list -> Diag.t list

val warnings : Diag.t list -> Diag.t list

(** One [Diag.to_string] line per diagnostic. *)
val render : Diag.t list -> string

(** [{"diagnostics":[...],"errors":N,"warnings":N}] *)
val to_tjson : Diag.t list -> Epre_telemetry.Tjson.t

(** Bump the [verify.<rule>] telemetry counter (keyed by the diagnostic's
    routine) for each diagnostic. *)
val record_metrics : Diag.t list -> unit
