(** Dominator-tree value numbering with hashing — the second pass the
    paper's optimizer was missing (Section 4.1), in the style Briggs,
    Cooper and Simpson later published: a scoped-hash dominator walk over
    internally-built SSA with copy propagation through value numbers,
    constant folding, and algebraic simplification by the identity
    table's rows ([Algebra.rows]) that make an evaluation a register or a
    constant. Redundant computations
    become copies to the canonical register; DCE and coalescing clean up.
    Returns the number of instructions simplified or redirected. *)

open Epre_ir

val run : Routine.t -> int
