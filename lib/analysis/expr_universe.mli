(** The expression universe shared by PRE and available-expression CSE.

    Under the Section 2.2 naming discipline an expression is identified by
    its canonical destination register; this module collects a routine's
    universe and the block-local ANTLOC/COMP/KILL sets every bit-vector
    pass needs. Registers violating the discipline are conservatively
    excluded — run [Naming.run] first to make the universe total. *)

open Epre_util
open Epre_ir

type key =
  | KConst of Value.t
  | KUnop of Op.unop * Instr.reg
  | KBinop of Op.binop * Instr.reg * Instr.reg
      (** commutative operands in canonical order *)
  | KLoad of Instr.reg

(** The key an instruction evaluates, [None] for non-expressions. *)
val key_of : Instr.t -> key option

val key_operands : key -> Instr.reg list

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
}

(** (register kills, memory kills) an instruction causes. *)
val kills_of_instr : t -> Instr.t -> int list * int list

val compute_local : t -> Routine.t -> local
