(** ILOC operators and their algebraic properties.

    The properties exported here drive the global reassociation pass of
    the paper's Section 3.1: only operators marked associative may be
    flattened into n-ary expression trees and have their operands sorted
    by rank. The identities rewriters use are [Algebra]'s table. *)

(** Binary operators. Integer and float arithmetic are distinct opcodes;
    comparisons produce an int 0/1. *)
type binop =
  | Add | Sub | Mul | Div | Rem
  | FAdd | FSub | FMul | FDiv
  | And | Or | Xor
  | Shl | Shr
  | Min | Max | FMin | FMax
  | Eq | Ne | Lt | Le | Gt | Ge
  | FEq | FNe | FLt | FLe | FGt | FGe

(** Unary operators, including the pure math intrinsics ([Sqrt], [FAbs],
    [IAbs]) that participate in redundancy elimination. *)
type unop = Neg | FNeg | Not | I2F | F2I | Sqrt | FAbs | IAbs

val binop_name : binop -> string

val unop_name : unop -> string

val all_binops : binop list

val all_unops : unop list

val commutative : binop -> bool

(** Exact associativity: safe to reorder unconditionally. *)
val associative : binop -> bool

(** Associative up to floating-point rounding ([FAdd], [FMul], [FMin],
    [FMax] in addition to the exact ones); whether the optimizer exploits
    this is a configuration choice — FORTRAN permits it, so the paper
    does. *)
val associative_modulo_rounding : binop -> bool

val binop_result_ty : binop -> Ty.t

val binop_operand_ty : binop -> Ty.t

val unop_result_ty : unop -> Ty.t

val unop_operand_ty : unop -> Ty.t

(** The additive operator a multiplication distributes over ([Mul] over
    [Add], [FMul] over [FAdd]) — Section 3.1's distribution step. *)
val distributes_over : binop -> binop option

(** Frailey's rewrite: for [Sub]/[FSub], the (addition, negation) pair such
    that [x - y = x + (neg y)]. *)
val sub_as_add_neg : binop -> (binop * unop) option

exception Division_by_zero

(** Evaluate an operator; raises [Division_by_zero] on integer
    division/remainder by zero and [Value.Type_error] on operand type
    mismatch. *)
val eval_binop : binop -> Value.t -> Value.t -> Value.t

val eval_unop : unop -> Value.t -> Value.t
