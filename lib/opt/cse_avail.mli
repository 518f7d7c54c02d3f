(** Global common-subexpression elimination over available expressions —
    method 2 of the paper's Section 5.3 hierarchy. Deletes evaluations
    whose expression is available (intersection-forward) at the evaluation
    point; under the naming discipline the name already holds the value.
    Requires non-SSA code. Returns the number of deletions. *)

open Epre_ir

(** The deletions over [fl], which must describe its routine as it
    stands: its universe, local sets and availability are used as they
    are. [fl] is stale afterwards if anything was deleted. *)
val sweep : Epre_analysis.Expr_flow.t -> int

(** [sweep (Expr_flow.build r)]. *)
val run : Routine.t -> int
