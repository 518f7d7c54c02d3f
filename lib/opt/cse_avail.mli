(** Global common-subexpression elimination over available expressions —
    method 2 of the paper's Section 5.3 hierarchy. Deletes evaluations
    whose expression is available (intersection-forward) at the evaluation
    point; under the naming discipline the name already holds the value.
    Requires non-SSA code. Returns the number of deletions. [uni], when
    given, must be the routine's current [Expr_universe.build] result; it
    saves rebuilding it. *)

open Epre_ir

val run : ?uni:Epre_analysis.Expr_universe.t -> Routine.t -> int
