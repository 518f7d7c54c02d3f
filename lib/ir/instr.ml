(** ILOC instructions.

    Three-address form over virtual registers. The distinction the paper
    draws in Section 2.2 between *variable names* (targets of [Copy]) and
    *expression names* (targets of every other computation) is a property of
    how passes choose registers, not of the instruction type itself; see
    [Epre_opt.Naming] and [Epre_gvn.Gvn].

    [Phi] nodes appear only while a routine is in SSA form; every pass that
    is not SSA-aware may assume their absence ([Routine.in_ssa] tracks
    this). *)

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
          along that edge. *)

type terminator =
  | Jump of int
  | Cbr of { cond : reg; ifso : int; ifnot : int }
  | Ret of reg option

(* ------------------------------------------------------------------ *)
(* Def/use structure                                                   *)

let def = function
  | Const { dst; _ } | Copy { dst; _ } | Unop { dst; _ } | Binop { dst; _ }
  | Load { dst; _ } | Alloca { dst; _ } | Phi { dst; _ } -> Some dst
  | Call { dst; _ } -> dst
  | Store _ -> None

let uses = function
  | Const _ | Alloca _ -> []
  | Copy { src; _ } | Unop { src; _ } -> [ src ]
  | Binop { a; b; _ } -> [ a; b ]
  | Load { addr; _ } -> [ addr ]
  | Store { addr; src } -> [ addr; src ]
  | Call { args; _ } -> args
  | Phi { args; _ } -> List.map snd args

let term_uses = function
  | Jump _ -> []
  | Cbr { cond; _ } -> [ cond ]
  | Ret (Some r) -> [ r ]
  | Ret None -> []

let term_succs = function
  | Jump l -> [ l ]
  | Cbr { ifso; ifnot; _ } -> if ifso = ifnot then [ ifso ] else [ ifso; ifnot ]
  | Ret _ -> []

(* ------------------------------------------------------------------ *)
(* Rewriting                                                           *)

let map_uses f = function
  | Const _ as i -> i
  | Alloca _ as i -> i
  | Copy { dst; src } -> Copy { dst; src = f src }
  | Unop { op; dst; src } -> Unop { op; dst; src = f src }
  | Binop { op; dst; a; b } -> Binop { op; dst; a = f a; b = f b }
  | Load { dst; addr } -> Load { dst; addr = f addr }
  | Store { addr; src } -> Store { addr = f addr; src = f src }
  | Call { dst; callee; args } -> Call { dst; callee; args = List.map f args }
  | Phi { dst; args } -> Phi { dst; args = List.map (fun (l, r) -> (l, f r)) args }

let map_def f = function
  | Const { dst; value } -> Const { dst = f dst; value }
  | Copy { dst; src } -> Copy { dst = f dst; src }
  | Unop { op; dst; src } -> Unop { op; dst = f dst; src }
  | Binop { op; dst; a; b } -> Binop { op; dst = f dst; a; b }
  | Load { dst; addr } -> Load { dst = f dst; addr }
  | Alloca { dst; words; init } -> Alloca { dst = f dst; words; init }
  | Call { dst; callee; args } -> Call { dst = Option.map f dst; callee; args }
  | Phi { dst; args } -> Phi { dst = f dst; args }
  | Store _ as i -> i

let map_term_uses f = function
  | Jump _ as t -> t
  | Cbr { cond; ifso; ifnot } -> Cbr { cond = f cond; ifso; ifnot }
  | Ret r -> Ret (Option.map f r)

let map_term_succs f = function
  | Jump l -> Jump (f l)
  | Cbr { cond; ifso; ifnot } -> Cbr { cond; ifso = f ifso; ifnot = f ifnot }
  | Ret _ as t -> t

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)

(* Pure computations: value depends only on operands; freely removable when
   dead, and candidates for value numbering. Loads are *not* pure (memory),
   but PRE still moves them, killed by stores/calls. *)
let is_pure = function
  | Const _ | Copy _ | Unop _ | Binop _ -> true
  | Load _ | Store _ | Alloca _ | Call _ | Phi _ -> false

(* Side effects that make an instruction unremovable even when its result is
   unused. *)
let has_side_effect = function
  | Store _ | Call _ -> true
  | Const _ | Copy _ | Unop _ | Binop _ | Load _ | Alloca _ | Phi _ -> false

let equal (a : t) (b : t) = a = b
