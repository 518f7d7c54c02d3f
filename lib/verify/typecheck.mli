(** Register-type inference and the [T0xx] rules.

    ILOC registers are untyped at the instruction level; the [Ty.Int] /
    [Ty.Flt] discipline the interpreter enforces dynamically (via
    [Value.Type_error]) is recovered here statically. Inference is a
    whole-program fixpoint over a three-point lattice per register
    (unknown < known < conflict):

    - definitions contribute types downward: constants, operator result
      types, [Alloca] addresses (int), copies and phis propagate, call
      results take the callee's inferred return type; loads stay unknown
      (memory words are untyped);
    - routine signatures flow around the call graph: parameter types join
      the argument types of every call site (plus the callee's own use
      constraints when the parameter is never redefined), return types
      join the types at every [Ret].

    [check] then reports operand/result mismatches, call-signature and
    phi-argument disagreements, and store/allocation inconsistencies
    against the inferred environment. A register whose definitions
    conflict is reported once ([T006]) and otherwise treated as unknown,
    so one bad definition does not cascade into every use.

    [infer] always solves from scratch, and is a pure function of the
    program: each round re-walks every routine until nothing rises, and
    the per-routine facts that no round changes (which parameters the
    body never redefines, and at which positions) are computed once per
    call. [Harness.supervise] therefore keeps one [info] per accepted
    program state and reuses it across steps that left their routine
    unchanged. *)

open Epre_ir

type info

(** Fixpoint over the whole program (terminates: the lattice is finite
    and every step is monotone). *)
val infer : Program.t -> info

(** [T0xx] diagnostics for one routine of the inferred program. *)
val check : info -> Routine.t -> Diag.t list
