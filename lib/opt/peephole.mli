(** Global peephole optimization (a baseline pass): block-local constant
    folding, the rewrite rows of the identity table ([Algebra.rows]; among
    them the reconstruction of subtraction from Frailey's [x + (-y)]
    form), branch folding — and, behind [mul_to_shift],
    multiplication-by-power-of-two into shifts. The flag exists because
    Section 5.2 warns that shifts are not associative: rewriting before
    global reassociation destroys grouping opportunities, so the pipeline
    enables it only in the final peephole run. *)

open Epre_ir

type config = { mul_to_shift : bool }

val default_config : config
(** [{ mul_to_shift = false }] *)

(** Returns the number of rewrites performed. *)
val run : ?config:config -> Routine.t -> int
