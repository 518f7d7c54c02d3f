(** Per-block register liveness, SSA-aware.

    A phi's arguments are uses at the end of the matching predecessor and
    its destination is born at the block top — the standard SSA liveness
    convention. Pruned SSA construction consumes [live_in]; the coalescer
    builds interference from [live_out]. *)

open Epre_util
open Epre_ir

type t

(** Liveness of the blocks [g] reaches; [g] is the routine's CFG view.
    Unreachable blocks keep empty sets. *)
val compute : Dataflow.graph -> Routine.t -> t

val live_in : t -> int -> Bitset.t

val live_out : t -> int -> Bitset.t

(** Width of the register universe the sets range over. *)
val nregs : t -> int
