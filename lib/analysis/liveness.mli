(** Per-block register liveness, SSA-aware.

    A phi's arguments are uses at the end of the matching predecessor and
    its destination is born at the block top — the standard SSA liveness
    convention. Pruned SSA construction consumes [live_into],
    [def_blocks] and [nonlocal]; the coalescer builds interference from
    [live_out].

    The solve runs over the routine's non-local registers only: those
    upward-exposed in some block or flowing into a phi. Every live-in and
    live-out set is a subset of them, so [live_in] and [live_out] are the
    sets a solve over every register gives. *)

open Epre_util
open Epre_ir

type t

(** Liveness of the blocks [g] reaches; [g] is the routine's CFG view.
    Unreachable blocks keep empty sets. One walk over the instructions
    also collects each register's defining blocks. *)
val compute : Dataflow.graph -> Routine.t -> t

(** Over the full register universe ([nregs] wide); built on first
    request and shared by later ones, so callers must not mutate it. *)
val live_in : t -> int -> Bitset.t

val live_out : t -> int -> Bitset.t

(** The non-local registers, ascending. The functions below take a
    register's position [k] in this array. *)
val nonlocal : t -> Instr.reg array

(** [live_into t id k]: is the [k]th non-local register live into block
    [id]? Reads the solve directly, without building [live_in]. *)
val live_into : t -> int -> int -> bool

(** Blocks whose instructions (phis included) define the [k]th non-local
    register, each once, in descending id order; a parameter's entry
    definition does not count. *)
val def_blocks : t -> int -> int list

(** Width of the register universe the sets range over. *)
val nregs : t -> int
