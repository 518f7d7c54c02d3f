(** The redundancy auditor: a static check of the paper's effectiveness
    claim.

    After reassociation + GVN + PRE, no redundant evaluation should
    survive that code motion could have removed, and no path should
    execute more evaluations than before. The auditor measures exactly
    that, per routine, from the [Expr_flow] systems:

    - every expression evaluation site is classified — {b full}ly
      redundant (available on every path at the site: a deletion CSE
      missed), {b partial}ly redundant (partially available and not
      available: a deletion a safe edge placement could enable),
      {b value}-redundant (a congruent evaluation dominates it), or
      clean;
    - every site gets a {b down-safety} verdict: an evaluation is
      speculative when its result is not read on every path from the site
      (the backward must-use system) — a correct lazy placement never
      increases the number of speculative sites;
    - register pressure ([Pressure]) and expression lifetimes are
      estimated, and per-expression {b path evaluation counts} (longest
      acyclic path, per syntactic shape) are compared against a baseline.

    Value congruence is the paper's own (Section 3.2): the AWZ partition
    ([Epre_gvn.Partition]) of an SSA copy of the routine, built with
    copy folding. Two congruent SSA values are equal wherever both are
    defined, so an unop/binop evaluation recomputes a value when a
    congruent evaluation dominates it: earlier in its block, or in a
    block that dominates its own. A routine that is not strict (a
    register read before any write on some path) has no SSA form and no
    value-redundant site.

    Findings carry the stable rule ids [A001]–[A007]; [Rules] registers
    them in the catalog and [Analyze] converts reports to diagnostics.
    Rule semantics:

    - [A001] (error, only with [expect_pre]): fully redundant evaluation
      survives;
    - [A002] (error, only with [expect_pre]): partially redundant
      evaluation survives that one more LCM round (the engine's own
      [Expr_flow.lcm_delete] equations) would delete — partial
      availability alone is not enough, insertion must also be safe;
    - [A003] (warning, needs [baseline]): the transformation added
      speculative (not down-safe) evaluations, as judged by the
      conservative register-level must-use proxy;
    - [A004] (warning, needs [baseline]): some path's evaluation count of
      one expression shape increased;
    - [A005] (warning, needs [baseline]): peak register pressure grew;
    - [A006] (warning): an expression temporary stays live across many
      blocks;
    - [A007] (warning): a [Value] or [Partial] evaluation survives that
      a congruent evaluation dominates; the message names that
      evaluation's block and index. *)

open Epre_ir

type classification = Clean | Full | Partial | Value

val classification_to_string : classification -> string

type site = {
  block : int;
  index : int;  (** instruction index within the block *)
  dst : Instr.reg;
  text : string;  (** the evaluation, printed *)
  cls : classification;
  holder : (int * int) option;
      (** for [Value] sites, the (block, index) of the nearest congruent
          evaluation that dominates it *)
  speculative : bool;  (** result not read on every path from the site *)
}

type finding = {
  rule : string;  (** stable id, ["A001"]..["A007"] *)
  block : int option;
  index : int option;
  message : string;
}

type report = {
  findings : finding list;
  sites : site list;  (** every evaluation site, in block/index order *)
  block_pressure : (int * int) list;  (** (block id, peak live) *)
  max_pressure : int;
  baseline_max_pressure : int option;
  speculative_count : int;
  baseline_speculative_count : int option;
}

(** Audit one routine. [expect_pre] arms the redundancy-residue errors
    (A001/A002) — set it when the routine went through a PRE level.
    [baseline] (the routine before the transformation under audit)
    arms the delta rules A003/A004/A005. The routine must be
    structurally sound and out of SSA; [Analyze] guards that. *)
val run : ?expect_pre:bool -> ?baseline:Routine.t -> Routine.t -> report

(** Sites still classified [Full] or [Partial] — the static
    effectiveness score (0 = nothing left on the table). *)
val residual : report -> int
