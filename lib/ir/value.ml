(** Runtime/constant values: one word, either integer or float. *)

type t = I of int | F of float

exception Type_error of string

let ty = function I _ -> Ty.Int | F _ -> Ty.Flt

let to_int = function
  | I i -> i
  | F _ -> raise (Type_error "expected int value")

let to_float = function
  | F f -> f
  | I _ -> raise (Type_error "expected float value")

(* Floats compare bit for bit, so [0.0] and [-0.0] differ (they are told
   apart by division and by [copysign]); every NaN equals every NaN, which
   keeps lattice fixpoints finite. *)
let float_equal x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  || (Float.is_nan x && Float.is_nan y)

let equal a b =
  match a, b with
  | I x, I y -> x = y
  | F x, F y -> float_equal x y
  | I _, F _ | F _, I _ -> false

let compare a b =
  match a, b with
  | I x, I y -> Int.compare x y
  | F x, F y ->
    if float_equal x y then 0
    else begin
      match Float.compare x y with
      | 0 -> Int64.compare (Int64.bits_of_float x) (Int64.bits_of_float y)  (* -0.0 < 0.0 *)
      | c -> c
    end
  | I _, F _ -> -1
  | F _, I _ -> 1

(* Consistent with [equal]: one hash for every NaN, and the two zeros
   apart. Multiplicative mixing of one word; no polymorphic hashing. *)
let mix k = (k * 0x2545F4914F6CDD1D) lxor (k lsr 29)

let hash = function
  | I i -> mix i
  | F f ->
    if Float.is_nan f then 0x7ff8
    else
      let b = Int64.bits_of_float f in
      mix (Int64.to_int b lxor Int64.to_int (Int64.shift_right_logical b 32))

let to_string = function
  | I i -> string_of_int i
  | F f -> Printf.sprintf "%h" f

let pp ppf = function
  | I i -> Fmt.int ppf i
  | F f -> Fmt.pf ppf "%g" f
