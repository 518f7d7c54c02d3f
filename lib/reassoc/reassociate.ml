(** Global reassociation — the paper's new algorithm (Section 3.1).

    The three steps: compute a rank for every expression, propagate
    expressions forward to their uses, and reassociate, sorting operands by
    rank (with optional distribution of multiplication over addition).
    Realized as: build pruned SSA with copies folded, rank over reverse
    postorder, forward-propagate building reassociated trees, DCE the
    stranded originals.

    This pass makes the code *worse* on its own — it duplicates expressions
    and moves them into loops. It is an enabling transformation: GVN then
    encodes value equivalence into the names and PRE harvests the exposed
    loop invariants and redundancies (Section 3). *)

open Epre_ir

type stats = {
  before_ops : int;  (** static ILOC operations entering the pass *)
  after_ops : int;  (** static operations after forward propagation *)
}

(** Expansion factor as reported in Table 2. *)
let expansion s =
  if s.before_ops = 0 then 1.0 else float_of_int s.after_ops /. float_of_int s.before_ops

let run ?(config = Expr_tree.default_config) (r : Routine.t) =
  if r.Routine.in_ssa then invalid_arg "Reassociate.run: requires non-SSA code";
  let before_ops = Routine.op_count r in
  let { Epre_ssa.Ssa.graph; _ } = Epre_ssa.Ssa.build r in
  let r = Forward_prop.run ~config graph r in
  Routine.validate r;
  let after_ops = Routine.op_count r in
  { before_ops; after_ops }
