(** Register-pressure estimation: maximum simultaneously live registers.

    PRE trades evaluations for live ranges — every hoisted expression
    keeps its canonical name live from the insertion point to the last
    use. Lazy placement bounds that cost but does not eliminate it, and
    the speculative/lifetime-aware variants in the literature (lospre)
    exist precisely because the trade can go wrong. This estimator is the
    auditor's measurement: per block, the peak of [|live|] over every
    program point (block entry, between instructions, before the
    terminator), computed by a backward walk from [Liveness.live_out]. *)

open Epre_ir

type t

(** Pressure of the blocks [g] reaches, from their [live] sets; [g] is
    the routine's CFG view and [live] its liveness on [g]. *)
val compute : Dataflow.graph -> Liveness.t -> Routine.t -> t

(** Peak simultaneous live registers inside block [id]; [0] for removed
    or unreachable blocks. *)
val block_pressure : t -> int -> int

(** [(block id, peak)] for every reachable block, ascending by id. *)
val per_block : t -> (int * int) list

(** Routine-wide maximum over reachable blocks. *)
val max_pressure : t -> int
