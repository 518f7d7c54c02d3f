(** The expression universe shared by PRE and available-expression CSE.

    Under the Section 2.2 naming discipline an expression is identified by
    its canonical destination register; this module collects a routine's
    universe and the block-local ANTLOC/COMP/KILL sets every bit-vector
    pass needs. Registers violating the discipline are conservatively
    excluded — run [Naming.run] first to make the universe total. *)

open Epre_util
open Epre_ir

type key = Expr_key.t =
  | KConst of Value.t
  | KUnop of Op.unop * Instr.reg
  | KBinop of Op.binop * Instr.reg * Instr.reg
      (** commutative operands in canonical order *)
  | KLoad of Instr.reg

(** The key an instruction evaluates, [None] for non-expressions. *)
val key_of : Instr.t -> key option

type expr = {
  index : int;  (** dense index into the bit vectors *)
  name : Instr.reg;  (** the canonical destination *)
  key : key;
}

type t

val size : t -> int

val exprs : t -> expr array

val expr_of_name : t -> Instr.reg -> expr option

val build : Routine.t -> t

type local = {
  antloc : Bitset.t array;
      (** evaluated in the block before any kill of the expression *)
  comp : Bitset.t array;  (** evaluated with no kill afterwards *)
  kill : Bitset.t array;
      (** operand redefined; loads also killed by stores/calls *)
  repeats : bool array;
      (** some expression is evaluated again with no kill since its
          previous evaluation in the block *)
  bodies : Instr.t list array;
      (** the instruction list each block's sets were computed from *)
}

(** The universe expression an instruction evaluates: [Some e] when it
    is an expression instruction into [e]'s name. *)
val evaluated : t -> Instr.t -> expr option

(** [iter_kills t i f] calls [f] on the index of every expression [i]
    kills: those with [i]'s destination as an operand and, for a store or
    a call, every load. *)
val iter_kills : t -> Instr.t -> (int -> unit) -> unit

val compute_local : t -> Routine.t -> local

(** [local] brought up to date with [r]'s blocks: the sets of a block
    whose instruction list is not (physically) its recorded body are
    recomputed into copies of the arrays; [local] itself is returned,
    untouched, when no block changed. [t] must still be [r]'s universe,
    and [r]'s blocks those [local] was computed over. Instruction lists
    are immutable, so an unchanged list means unchanged sets. *)
val refresh_local : t -> local -> Routine.t -> local
