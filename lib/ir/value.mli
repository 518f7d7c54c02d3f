(** Runtime/constant values: one word, either integer or float. *)

type t = I of int | F of float

exception Type_error of string

val ty : t -> Ty.t

(** @raise Type_error on a float. *)
val to_int : t -> int

(** @raise Type_error on an int. *)
val to_float : t -> float

(** Floats compare bit for bit, so [0.0] differs from [-0.0]; every NaN
    equals every NaN (needed for lattice/fixpoint termination). *)
val equal : t -> t -> bool

(** A total order consistent with [equal]: [-0.0] sorts before [0.0]. *)
val compare : t -> t -> int

(** Consistent with [equal]; hashes no value polymorphically. *)
val hash : t -> int

(** Exact textual form (hexadecimal floats); parseable by [Ir_text]. *)
val to_string : t -> string

(** Human-friendly form ([%g] floats). *)
val pp : Format.formatter -> t -> unit
