(** The expression an instruction evaluates, as a hash key.

    Every table that finds an earlier evaluation of "the same expression"
    keys on this type: [Naming]'s canonical names, the PRE universe and
    the dominator-walk value numberers. Commutative
    operands are put in ascending order. Constants compare with
    [Value.equal], so [0.0] and [-0.0] are two expressions; the tables in
    [Tbl] hash no value polymorphically. *)

type t =
  | KConst of Value.t
  | KUnop of Op.unop * Instr.reg
  | KBinop of Op.binop * Instr.reg * Instr.reg
  | KLoad of Instr.reg

(** [KBinop] with commutative operands in ascending order. *)
val binop : Op.binop -> Instr.reg -> Instr.reg -> t

(** The key an instruction evaluates, [None] for non-expressions. *)
val of_instr : Instr.t -> t option

(** Rebuild an instruction evaluating the key into [dst]. *)
val to_instr : t -> dst:Instr.reg -> Instr.t

(** Distinct operand registers. *)
val operands : t -> Instr.reg list

val equal : t -> t -> bool

(** [equal], except that a NaN constant is identical to nothing, itself
    included: IEEE equality on constants, with the two zeros apart. The
    name-discipline checks ([Naming], [Expr_universe]) read "every
    definition evaluates one key" this way, which keeps a register set by
    NaN constants out of the expression universe. *)
val identical : t -> t -> bool

val hash : t -> int

module Tbl : Hashtbl.S with type key = t
