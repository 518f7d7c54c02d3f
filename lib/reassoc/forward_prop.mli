(** Forward propagation (Section 3.1, "Forward Propagation").

    Splits entering edges where necessary, removes each phi by copies at
    its predecessors (Figure 5), and rebuilds the full — reassociated —
    expression tree of every root use (phi-copy sources, branch conditions,
    call arguments, returns, store operands, load addresses) immediately
    before that use, tracing the SSA graph back through pure instructions
    to anchors (parameters, phi names, loads, calls, allocas).

    Trees duplicate shared subexpressions — the growth of Table 2, worst
    case exponential (Section 4.3) — and DCE sweeps the stranded originals.
    Propagation also eliminates partially-dead expressions as a side
    effect. *)

open Epre_ir

(** Requires SSA form; [g] is the view of the routine's CFG that ranks are
    computed on. Leaves non-SSA code. *)
val run : config:Expr_tree.config -> Epre_analysis.Dataflow.graph -> Routine.t -> Routine.t
