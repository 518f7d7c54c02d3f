(** Generic iterative bit-vector data-flow solver.

    Every global system in this reproduction — available expressions,
    anticipability, PRE's earliest/later systems — is a gen/kill problem
    over block-indexed bit vectors with union or intersection meet. A
    solve runs over a [graph] view the caller builds once and shares
    between every solve on an unchanged graph. It sweeps the blocks in
    reverse postorder (forward) or postorder (backward): the first sweep
    visits every reachable block, later ones only the blocks whose
    sources changed since their last visit, until none is pending. It
    updates the result sets in place through one scratch set per solve,
    so a visit allocates nothing. *)

open Epre_util
open Epre_ir

(** The reachable part of a CFG as arrays: what every solve reads, built
    once by [graph]. Valid until an edge or block changes. *)
type graph = {
  order : Order.t;
  rpo : int array;  (** reachable block ids, reverse postorder *)
  po : int array;  (** reachable block ids, postorder *)
  preds : int array array;
      (** by block id: the reachable predecessors, deduplicated; empty for
          an unreachable block *)
  succs : int array array;
      (** by block id: the successors ([Block.succs]); empty for an
          unreachable block *)
  entry : int;
}

val graph : Cfg.t -> graph

(** [iterate g ~forward visit] drives a fixed point over the reachable
    blocks: sweeps in reverse postorder ([forward]) or postorder, the
    first visiting every block, later ones only blocks with a pending
    source. [visit id] recomputes block [id] from its sources and returns
    whether its result changed; a change makes the block's successors
    ([forward]) or reachable predecessors pending. The solves below run
    on it, and so does [Expr_flow.lcm_placement]'s LATERIN system. *)
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
