(** The graph view every read-only CFG analysis takes, and the iterative
    bit-vector data-flow solver that runs on it.

    A consumer builds one [graph] and hands it to every analysis it runs
    on an unchanged graph: [Dom] (and [Postdom], which is [Dom] on the
    reverse view), [Liveness], [Loops], [Initialized], [Pressure] and the
    gen/kill solves below. [iterate] drives every fixed point over a
    view: the gen/kill systems (available expressions, anticipability,
    definite assignment), [Expr_flow.lcm_placement]'s LATERIN system and
    liveness. It sweeps the nodes in reverse postorder (forward) or
    postorder (backward): the first sweep visits every reachable node,
    later ones only the nodes whose sources changed since their last
    visit, until none is pending. The gen/kill solves update their sets
    in place through one scratch set per solve, so a visit allocates
    nothing. *)

open Epre_util
open Epre_ir

(** The part of a rooted graph reachable from its root, as arrays: what
    every analysis reads. Valid until an edge or block changes. *)
type graph = {
  order : Order.t;
  rpo : int array;  (** reachable node ids, reverse postorder *)
  po : int array;  (** reachable node ids, postorder *)
  preds : int array array;
      (** by node id: the reachable predecessors in ascending id order
          (for a CFG, the order [Cfg.preds] gives); empty for an
          unreachable node *)
  succs : int array array;
      (** by node id: the successors, in the order the successor function
          gives them; empty for an unreachable node *)
  entry : int;  (** the root: the CFG's entry, or a reverse view's exit *)
}

(** [view ~n ~root succs]: the view of nodes [0..n-1] from [root], where
    [succs id] lists node [id]'s successors without duplicates. *)
val view : n:int -> root:int -> (int -> int list) -> graph

(** The view of a CFG from its entry along [Cfg.succs]. *)
val graph : Cfg.t -> graph

(** [iterate g ~forward visit] drives a fixed point over the reachable
    blocks: sweeps in reverse postorder ([forward]) or postorder, the
    first visiting every block, later ones only blocks with a pending
    source. [visit id] recomputes block [id] from its sources and returns
    whether its result changed; a change makes the block's successors
    ([forward]) or reachable predecessors pending. The solves below run
    on it, and so do [Expr_flow.lcm_placement]'s LATERIN system and
    [Liveness]. *)
val iterate : graph -> forward:bool -> (int -> bool) -> unit

type meet = Union | Inter

type system = {
  width : int;  (** number of data-flow facts *)
  gen : Bitset.t array;  (** by block id: facts generated *)
  kill : Bitset.t array;  (** by block id: facts killed *)
  boundary : Bitset.t;
      (** value at the graph boundary: IN of the entry for forward
          problems, OUT of each exit for backward ones *)
  meet : meet;
}

(** By block id; unreachable blocks keep empty sets. *)
type result = { ins : Bitset.t array; outs : Bitset.t array }

(** [out = gen ∪ (in \ kill)]; IN of a block is the meet over its
    reachable predecessors' OUTs (the entry takes the boundary).
    Intersection problems are initialized optimistically (full). *)
val solve_forward : graph -> system -> result

(** [in = gen ∪ (out \ kill)]; OUT is the meet over successor INs. *)
val solve_backward : graph -> system -> result
