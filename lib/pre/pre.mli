(** Partial redundancy elimination: one round driver with two placements.

    [run] places insertions on edges (Drechsler–Stadel, the engine behind
    the paper's "partial" level); [run_classic] places them at block ends
    (Morel–Renvoise 1979, kept as the ablation baseline — compare with
    [bench/main.exe ablation]). Both iterate rounds, each ending with an
    available-expression deletion sweep that also subsumes global CSE, to
    a fixed point bounded by [max_rounds]. Both require non-SSA code under
    the Section 2.2 naming discipline — run [Epre_opt.Naming] first on
    untrusted input. Loads participate, killed by stores and calls. *)

open Epre_ir

type stats = {
  mutable inserted : int;  (** computations placed by the placement *)
  mutable deleted : int;  (** evaluations the placement covers, removed *)
  mutable cse_deleted : int;  (** evaluations removed by the per-round sweep *)
  mutable rounds : int;
}

(** The round cap both engines share. *)
val max_rounds : int

(** Edge placement: insertions on (pre-split) edges; never lengthens an
    execution path. *)
val run : Routine.t -> stats

(** [run], also returning the universe its last round handed on. A run
    builds its expression universe once and carries it from round to
    round, so that universe must equal [Expr_universe.build] of the
    routine the run leaves; tests check this. *)
val run_carrying : Routine.t -> stats * Epre_analysis.Expr_universe.t

(** Block-end placement: never splits critical edges, so it is blocked
    wherever one is the only legal insertion point. *)
val run_classic : Routine.t -> stats
