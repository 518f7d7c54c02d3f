(** Control-flow graphs.

    Blocks live in a dense table indexed by block id; removing a block
    leaves a hole (ids stay stable across passes) and [Epre_opt.Clean]
    compacts when it matters. Successor edges are implied by terminators;
    predecessor lists are recomputed on demand. *)

type t

(** An empty graph; the first block added becomes the entry. *)
val create : unit -> t

(** Append a fresh block; its id is the next free index. *)
val add_block : ?instrs:Instr.t list -> term:Instr.terminator -> t -> Block.t

(** Upper bound on block ids (holes included). *)
val num_blocks : t -> int

val find_block : t -> int -> Block.t option

(** @raise Invalid_argument on a missing block. *)
val block : t -> int -> Block.t

val mem : t -> int -> bool

(** @raise Invalid_argument when removing the entry. *)
val remove_block : t -> int -> unit

val entry : t -> int

val set_entry : t -> int -> unit

(** In id order, skipping holes. *)
val iter_blocks : (Block.t -> unit) -> t -> unit

val fold_blocks : ('a -> Block.t -> 'a) -> 'a -> t -> 'a

val blocks : t -> Block.t list

val succs : t -> int -> int list

(** Predecessor lists indexed by block id, rebuilt on every call. Every
    source block in the table counts, unreachable ones included; callers
    that want only reachable predecessors filter them. Dangling successor
    ids (only possible in ill-formed graphs) are ignored. *)
val preds : t -> int list array

val exit_blocks : t -> Block.t list

(** Split the edge [from_ -> to_]: insert a block containing only a jump,
    retargeting [from_]'s terminator and [to_]'s phis. Returns the new
    block. *)
val split_edge : t -> from_:int -> to_:int -> Block.t

(** When some block (reachable or not) jumps to the entry, add a fresh
    empty block that jumps to it and make that the entry; otherwise do
    nothing. SSA construction and PRE run it first: both read the entry as
    entered only from outside the routine. *)
val give_entry_no_preds : t -> unit

(** Blocks reachable from the entry, as a bitset over block ids. *)
val reachable : t -> Epre_util.Bitset.t

(** Deep copy: mutating the copy leaves the original untouched. *)
val copy : t -> t

(** Overwrite the graph in place with a deep copy of [from] — the rollback
    half of a checkpoint/restore pair. [from] stays usable, so one snapshot
    can restore more than once. *)
val restore : t -> from:t -> unit
