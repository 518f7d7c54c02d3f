(** Depth-first orders over the reachable part of a rooted graph.

    Reverse postorder is the traversal the paper uses both for the
    dominator iteration and for assigning reassociation ranks
    (Section 3.1). *)

open Epre_ir

type t

(** [of_succs ~n ~root succs]: the depth-first orders of nodes [0..n-1]
    reachable from [root], visiting each node's [succs] in list order. *)
val of_succs : n:int -> root:int -> (int -> int list) -> t

(** The orders of a CFG's blocks from its entry, along [Cfg.succs]. *)
val compute : Cfg.t -> t

(** Reachable block ids in postorder. *)
val postorder : t -> int array

(** Reachable block ids in reverse postorder; the entry comes first. *)
val reverse_postorder : t -> int array

(** Postorder index of a block, [-1] when unreachable or removed. *)
val postorder_number : t -> int -> int

val is_reachable : t -> int -> bool

(** Reverse-postorder position; the entry gets 0, [-1] when unreachable. *)
val rpo_number : t -> int -> int
