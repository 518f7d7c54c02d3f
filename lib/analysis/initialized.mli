(** Definite-assignment analysis: which registers are written on {e every}
    path from the entry to a program point.

    The SSA checker proves def-before-use through dominance, but only for
    code in SSA form; outside SSA a register may legitimately have several
    definitions, one per path, and a use is sound as long as each path
    carries one. This is the classic forward "definitely assigned"
    bit-vector problem (intersection meet, parameters at the boundary),
    solved with the same [Dataflow] engine as the availability systems.
    The verifier's def-before-use rule walks blocks against [on_entry]. *)

open Epre_util
open Epre_ir

type t

(** Requires a structurally valid CFG (no dangling edges, registers in
    range); the verifier runs its structural rules first. [g] is the
    routine's CFG view. *)
val compute : Dataflow.graph -> Routine.t -> t

(** Registers definitely assigned on entry to block [id]. Unreachable
    blocks report the full set (every fact holds vacuously). *)
val on_entry : t -> int -> Bitset.t
