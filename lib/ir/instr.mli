(** ILOC instructions: three-address form over virtual registers.

    The distinction the paper draws in Section 2.2 between {e variable
    names} (targets of [Copy]) and {e expression names} (targets of every
    other computation) is a property of how passes choose registers, not of
    the instruction type; see [Epre_opt.Naming] and [Epre_gvn.Gvn].

    [Phi] nodes appear only while a routine is in SSA form
    ([Routine.in_ssa]). *)

type reg = int

type t =
  | Const of { dst : reg; value : Value.t }
  | Copy of { dst : reg; src : reg }
  | Unop of { op : Op.unop; dst : reg; src : reg }
  | Binop of { op : Op.binop; dst : reg; a : reg; b : reg }
  | Load of { dst : reg; addr : reg }
  | Store of { addr : reg; src : reg }
  | Alloca of { dst : reg; words : int; init : Value.t }
      (** allocates [words] memory words, each filled with [init] *)
  | Call of { dst : reg option; callee : string; args : reg list }
  | Phi of { dst : reg; args : (int * reg) list }
      (** [args] pairs a predecessor block id with the register flowing in
          along that edge *)

type terminator =
  | Jump of int
  | Cbr of { cond : reg; ifso : int; ifnot : int }
      (** branches to [ifso] when [cond] is non-zero *)
  | Ret of reg option

(** {1 Def/use structure} *)

val def : t -> reg option

val uses : t -> reg list

val term_uses : terminator -> reg list

(** Successor block ids; a [Cbr] with equal arms yields the target once. *)
val term_succs : terminator -> int list

(** {1 Rewriting} *)

val map_uses : (reg -> reg) -> t -> t

val map_def : (reg -> reg) -> t -> t

val map_term_uses : (reg -> reg) -> terminator -> terminator

val map_term_succs : (int -> int) -> terminator -> terminator

(** {1 Classification} *)

(** Value depends only on operands; freely removable when dead and a
    candidate for value numbering. Loads are not pure (memory). *)
val is_pure : t -> bool

(** Unremovable even when the result is unused: stores and calls. *)
val has_side_effect : t -> bool

(** Structural equality with constants compared bit for bit, so [0.0]
    differs from [-0.0] and NaNs differ by payload. *)
val equal : t -> t -> bool
