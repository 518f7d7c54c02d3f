(** Expression keys. See the interface. *)

type t =
  | KConst of Value.t
  | KUnop of Op.unop * Instr.reg
  | KBinop of Op.binop * Instr.reg * Instr.reg
  | KLoad of Instr.reg

let binop op a b = if Op.commutative op && b < a then KBinop (op, b, a) else KBinop (op, a, b)

let of_instr = function
  | Instr.Const { value; _ } -> Some (KConst value)
  | Instr.Unop { op; src; _ } -> Some (KUnop (op, src))
  | Instr.Binop { op; a; b; _ } -> Some (binop op a b)
  | Instr.Load { addr; _ } -> Some (KLoad addr)
  | Instr.Copy _ | Instr.Store _ | Instr.Alloca _ | Instr.Call _ | Instr.Phi _ -> None

let to_instr key ~dst =
  match key with
  | KConst value -> Instr.Const { dst; value }
  | KUnop (op, src) -> Instr.Unop { op; dst; src }
  | KBinop (op, a, b) -> Instr.Binop { op; dst; a; b }
  | KLoad addr -> Instr.Load { dst; addr }

let operands = function
  | KConst _ -> []
  | KUnop (_, a) | KLoad a -> [ a ]
  | KBinop (_, a, b) -> if a = b then [ a ] else [ a; b ]

let equal x y =
  match x, y with
  | KConst u, KConst v -> Value.equal u v
  | KUnop (o, a), KUnop (o', a') -> o = o' && a = a'
  | KBinop (o, a, b), KBinop (o', a', b') -> o = o' && a = a' && b = b'
  | KLoad a, KLoad a' -> a = a'
  | (KConst _ | KUnop _ | KBinop _ | KLoad _), _ -> false

let identical x y =
  equal x y && match x with KConst (Value.F f) -> not (Float.is_nan f) | _ -> true

(* Operators are constant constructors, so [Hashtbl.hash] of one hashes
   an immediate. *)
let hash = function
  | KConst v -> Value.hash v
  | KUnop (o, a) -> Hashtbl.hash o + (31 * a) + 1
  | KBinop (o, a, b) -> Hashtbl.hash o + (31 * (a + (65599 * b))) + 2
  | KLoad a -> (31 * a) + 3

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash = hash
end)
