(** Partition-based global value numbering — the congruence analysis of
    Alpern, Wegman and Zadeck, adopted by the paper's Section 3.2.

    Starts from the optimistic assumption that values defined the same way
    are equivalent and splits classes until each is congruent: same
    operator, congruent operands position by position (phis additionally in
    the same block). Loads, calls, allocas and parameters are opaque
    singletons.

    The result is the coarsest stable refinement of the initial labels,
    which is unique: the classes depend on the program alone, not on the
    order refinement splits them in. Class ids carry no meaning beyond
    telling classes apart. *)

open Epre_ir

type config = {
  commutative : bool;
      (** normalize commutative operand order before comparison; on by
          default (the Section 2.2 example needs it), off gives AWZ's
          positional "simplest variation" *)
}

val default_config : config

type t

(** Requires SSA form. *)
val build : ?config:config -> Routine.t -> t

(** Class id of a register; [-1] for never-defined registers. *)
val class_of : t -> Instr.reg -> int

val congruent : t -> Instr.reg -> Instr.reg -> bool

(** The registers with a definition (parameters included), ascending:
    those [class_of] puts in a class. *)
val registers : t -> Instr.reg array

(** The smallest register of [reg]'s class; [reg] itself when it has no
    definition. *)
val leader : t -> Instr.reg -> Instr.reg
