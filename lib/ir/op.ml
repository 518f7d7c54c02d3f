(** ILOC operators and their algebraic properties.

    The properties exported here ([commutative], [associative]) drive the
    global reassociation pass of Section 3.1: only operators marked
    associative may be flattened into n-ary expression trees and have their
    operands sorted by rank. The identities rewriters use are [Algebra]'s
    table. Floating-point [FAdd]/[FMul] are associative only up to
    rounding; whether the optimizer exploits that is a configuration choice
    (FORTRAN permits it, so the paper does), hence the separate
    [associative_modulo_rounding] predicate. *)

type binop =
  | Add | Sub | Mul | Div | Rem
  | FAdd | FSub | FMul | FDiv
  | And | Or | Xor
  | Shl | Shr
  | Min | Max | FMin | FMax
  | Eq | Ne | Lt | Le | Gt | Ge
  | FEq | FNe | FLt | FLe | FGt | FGe

type unop = Neg | FNeg | Not | I2F | F2I | Sqrt | FAbs | IAbs

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | FAdd -> "fadd" | FSub -> "fsub" | FMul -> "fmul" | FDiv -> "fdiv"
  | And -> "and" | Or -> "or" | Xor -> "xor"
  | Shl -> "shl" | Shr -> "shr"
  | Min -> "min" | Max -> "max" | FMin -> "fmin" | FMax -> "fmax"
  | Eq -> "cmp_eq" | Ne -> "cmp_ne" | Lt -> "cmp_lt"
  | Le -> "cmp_le" | Gt -> "cmp_gt" | Ge -> "cmp_ge"
  | FEq -> "fcmp_eq" | FNe -> "fcmp_ne" | FLt -> "fcmp_lt"
  | FLe -> "fcmp_le" | FGt -> "fcmp_gt" | FGe -> "fcmp_ge"

let unop_name = function
  | Neg -> "neg" | FNeg -> "fneg" | Not -> "not"
  | I2F -> "i2f" | F2I -> "f2i"
  | Sqrt -> "sqrt" | FAbs -> "fabs" | IAbs -> "iabs"

let all_binops =
  [ Add; Sub; Mul; Div; Rem; FAdd; FSub; FMul; FDiv; And; Or; Xor; Shl; Shr;
    Min; Max; FMin; FMax; Eq; Ne; Lt; Le; Gt; Ge; FEq; FNe; FLt; FLe; FGt; FGe ]

let all_unops = [ Neg; FNeg; Not; I2F; F2I; Sqrt; FAbs; IAbs ]

let commutative = function
  | Add | Mul | FAdd | FMul | And | Or | Xor
  | Min | Max | FMin | FMax | Eq | Ne | FEq | FNe -> true
  | Sub | Div | Rem | FSub | FDiv | Shl | Shr
  | Lt | Le | Gt | Ge | FLt | FLe | FGt | FGe -> false

(* Exact associativity: safe to reorder unconditionally. *)
let associative = function
  | Add | Mul | And | Or | Xor | Min | Max -> true
  | FAdd | FMul | FMin | FMax
  | Sub | Div | Rem | FSub | FDiv | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge | FEq | FNe | FLt | FLe | FGt | FGe -> false

(* Associative up to floating-point rounding; reassociating changes results
   by at most rounding error. FMin/FMax are exactly associative absent NaN,
   which our [Value] semantics never produces from min/max. *)
let associative_modulo_rounding = function
  | FAdd | FMul | FMin | FMax -> true
  | op -> associative op

(* Result type of each operator: comparisons produce int 0/1. *)
let binop_result_ty = function
  | Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Min | Max
  | Eq | Ne | Lt | Le | Gt | Ge | FEq | FNe | FLt | FLe | FGt | FGe -> Ty.Int
  | FAdd | FSub | FMul | FDiv | FMin | FMax -> Ty.Flt

let binop_operand_ty = function
  | Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Min | Max
  | Eq | Ne | Lt | Le | Gt | Ge -> Ty.Int
  | FAdd | FSub | FMul | FDiv | FMin | FMax
  | FEq | FNe | FLt | FLe | FGt | FGe -> Ty.Flt

let unop_result_ty = function
  | Neg | Not | F2I | IAbs -> Ty.Int
  | FNeg | I2F | Sqrt | FAbs -> Ty.Flt

let unop_operand_ty = function
  | Neg | Not | I2F | IAbs -> Ty.Int
  | FNeg | F2I | Sqrt | FAbs -> Ty.Flt

(* The additive structure a reassociable multiplication distributes over:
   [Mul] over [Add], [FMul] over [FAdd] (Section 3.1, "Sorting
   Expressions"). *)
let distributes_over = function
  | Mul -> Some Add
  | FMul -> Some FAdd
  | _ -> None

(* Inverse injection for Frailey's rewrite x - y -> x + (-y). *)
let sub_as_add_neg = function
  | Sub -> Some (Add, Neg)
  | FSub -> Some (FAdd, FNeg)
  | _ -> None

exception Division_by_zero

let bool_int b = Value.I (if b then 1 else 0)

let eval_binop op a b =
  let ii f = Value.I (f (Value.to_int a) (Value.to_int b)) in
  let ff f = Value.F (f (Value.to_float a) (Value.to_float b)) in
  let icmp f = bool_int (f (Value.to_int a) (Value.to_int b)) in
  let fcmp f = bool_int (f (Value.to_float a) (Value.to_float b)) in
  match op with
  | Add -> ii ( + )
  | Sub -> ii ( - )
  | Mul -> ii ( * )
  | Div -> if Value.to_int b = 0 then raise Division_by_zero else ii ( / )
  | Rem -> if Value.to_int b = 0 then raise Division_by_zero else ii Stdlib.( mod )
  | FAdd -> ff ( +. )
  | FSub -> ff ( -. )
  | FMul -> ff ( *. )
  | FDiv -> ff ( /. )
  | And -> ii ( land )
  | Or -> ii ( lor )
  | Xor -> ii ( lxor )
  | Shl -> ii ( lsl )
  | Shr -> ii ( asr )
  | Min -> ii Stdlib.min
  | Max -> ii Stdlib.max
  | FMin -> ff Float.min_num
  | FMax -> ff Float.max_num
  | Eq -> icmp ( = )
  | Ne -> icmp ( <> )
  | Lt -> icmp ( < )
  | Le -> icmp ( <= )
  | Gt -> icmp ( > )
  | Ge -> icmp ( >= )
  | FEq -> fcmp ( = )
  | FNe -> fcmp ( <> )
  | FLt -> fcmp ( < )
  | FLe -> fcmp ( <= )
  | FGt -> fcmp ( > )
  | FGe -> fcmp ( >= )

let eval_unop op a =
  match op with
  | Neg -> Value.I (- Value.to_int a)
  | FNeg -> Value.F (-. Value.to_float a)
  | Not -> Value.I (lnot (Value.to_int a))
  | I2F -> Value.F (float_of_int (Value.to_int a))
  | F2I -> Value.I (int_of_float (Value.to_float a))
  | Sqrt -> Value.F (Float.sqrt (Value.to_float a))
  | FAbs -> Value.F (Float.abs (Value.to_float a))
  | IAbs -> Value.I (abs (Value.to_int a))
