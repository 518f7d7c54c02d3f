(** Dominators and dominance frontiers of a graph view.

    Immediate dominators via the Cooper–Harvey–Kennedy iterative algorithm
    over reverse postorder; dominance frontiers per Cytron et al., consumed
    by SSA phi placement. The one dominator computation: [Postdom] is this
    module on the reverse view. *)

type t

(** Dominators of the nodes reachable from the view's root. The frontier
    walk takes the root for a join only when two of its own predecessors
    are reachable, as no virtual edge enters it. *)
val compute : Dataflow.graph -> t

(** Immediate dominator; the root is its own idom; [-1] for unreachable
    nodes. *)
val idom : t -> int -> int

(** Dominator-tree children, in reverse postorder. *)
val children : t -> int -> int list

(** Dominance frontier DF(id). *)
val frontier : t -> int -> int list

(** [dominates t a b]: does [a] dominate [b] (reflexively)? False when [b]
    is unreachable. *)
val dominates : t -> int -> int -> bool

(** Preorder walk of the dominator tree rooted at [entry]. *)
val iter_tree : t -> entry:int -> (int -> unit) -> unit
