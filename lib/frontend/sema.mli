(** Semantic analysis: symbol resolution and type checking.

    FORTRAN-flavoured rules: one flat scope per routine, implicit [int] to
    [float] widening, arrays passed by reference with shapes matching the
    callee's declaration. The lowering pass shares [join_scalar] and the
    intrinsic table, so the two agree on widening and on intrinsics. *)

open Ast

exception Error of { line : int; message : string }

type fsig = { fparams : vtype list; fret : scalar_ty option }

type env = { fsigs : (string, fsig) Hashtbl.t }

type intrinsic = Sqrt | Abs | Min | Max | Mod | To_float | To_int | Emit

val intrinsic_of_name : string -> intrinsic option

val is_intrinsic : string -> bool

(** Common type of two scalar operands (int widens to float). *)
val join_scalar : int -> scalar_ty -> scalar_ty -> scalar_ty

(** Check a whole program and return its routine signatures.
    @raise Error on the first violation. *)
val check_program : program -> env
