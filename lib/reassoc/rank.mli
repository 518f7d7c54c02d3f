(** Ranks (Section 3.1, "Computing Ranks"), computed on pruned SSA during a
    reverse-postorder traversal:

    + constants receive rank zero;
    + phi results, call results, loads (and allocas/parameters) receive
      their block's rank;
    + an expression receives its highest-ranked operand's rank.

    Loop-invariant expressions thus rank below loop-variant ones, and the
    rank of a loop-variant value tracks the nesting depth of the loop that
    varies it. *)

open Epre_ir

type t

(** Requires SSA form. [g] is the view of [r]'s CFG (what [Ssa.build]
    returns); blocks are numbered in its reverse postorder. *)
val compute : Epre_analysis.Dataflow.graph -> Routine.t -> t

val of_reg : t -> Instr.reg -> int

(** 1-based reverse-postorder block number. *)
val of_block : t -> int -> int
