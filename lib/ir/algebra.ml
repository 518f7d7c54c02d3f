(* The exact identities: one table, one matcher. See algebra.mli. *)

type term =
  | X
  | Y
  | C
  | K of Value.t
  | N
  | Pow2
  | U of Op.unop * term
  | B of Op.binop * term * term

type row = { name : string; lhs : term; rhs : term; rewrite : bool }

let shift_limit = 62

let rows =
  let row ?(rewrite = true) name lhs rhs = { name; lhs; rhs; rewrite } in
  let i n = K (Value.I n) and f x = K (Value.F x) in
  let self_compares =
    List.map
      (fun (op, v) -> row (Printf.sprintf "x %s x = %d" (Op.binop_name op) v) (B (op, X, X)) (i v))
      [ (Op.Eq, 1); (Op.Le, 1); (Op.Ge, 1); (Op.Ne, 0); (Op.Lt, 0); (Op.Gt, 0) ]
  in
  [ row "x add 0 = x" (B (Add, X, i 0)) X;
    row "x sub 0 = x" (B (Sub, X, i 0)) X;
    row "x mul 1 = x" (B (Mul, X, i 1)) X;
    row "x mul 0 = 0" (B (Mul, X, i 0)) (i 0);
    row "x div 1 = x" (B (Div, X, i 1)) X;
    row "x and -1 = x" (B (And, X, i (-1))) X;
    row "x and 0 = 0" (B (And, X, i 0)) (i 0);
    row "x or 0 = x" (B (Or, X, i 0)) X;
    row "x or -1 = -1" (B (Or, X, i (-1))) (i (-1));
    row "x xor 0 = x" (B (Xor, X, i 0)) X;
    row "x shr 0 = x" (B (Shr, X, i 0)) X;
    row "x min max_int = x" (B (Min, X, i max_int)) X;
    row "x min min_int = min_int" (B (Min, X, i min_int)) (i min_int);
    row "x max min_int = x" (B (Max, X, i min_int)) X;
    row "x max max_int = max_int" (B (Max, X, i max_int)) (i max_int);
    row "x sub x = 0" (B (Sub, X, X)) (i 0);
    row "x xor x = 0" (B (Xor, X, X)) (i 0);
    row "x and x = x" (B (And, X, X)) X;
    row "x or x = x" (B (Or, X, X)) X;
    row "x min x = x" (B (Min, X, X)) X;
    row "x max x = x" (B (Max, X, X)) X ]
  @ self_compares
  @ [ row ~rewrite:false "x shl n = x mul 2^n" (B (Shl, X, N)) (B (Mul, X, Pow2));
      row "neg (neg x) = x" (U (Neg, U (Neg, X))) X;
      row "not (not x) = x" (U (Not, U (Not, X))) X;
      row "x add (neg y) = x sub y" (B (Add, X, U (Neg, Y))) (B (Sub, X, Y));
      row ~rewrite:false "x sub (neg y) = x add y" (B (Sub, X, U (Neg, Y))) (B (Add, X, Y));
      row ~rewrite:false "0 sub x = neg x" (B (Sub, i 0, X)) (U (Neg, X));
      row ~rewrite:false "x sub c = x add (neg c)" (B (Sub, X, C)) (B (Add, X, U (Neg, C)));
      row "fneg (fneg x) = x" (U (FNeg, U (FNeg, X))) X;
      row "x fadd (fneg y) = x fsub y" (B (FAdd, X, U (FNeg, Y))) (B (FSub, X, Y));
      row ~rewrite:false "x fsub (fneg y) = x fadd y" (B (FSub, X, U (FNeg, Y))) (B (FAdd, X, Y));
      row ~rewrite:false "-0.0 fsub x = fneg x" (B (FSub, f (-0.0), X)) (U (FNeg, X));
      row "x fsub 0.0 = x" (B (FSub, X, f 0.0)) X;
      row ~rewrite:false "x fsub c = x fadd (fneg c)" (B (FSub, X, C)) (B (FAdd, X, U (FNeg, C)));
      row "x fadd -0.0 = x" (B (FAdd, X, f (-0.0))) X;
      row "x fmul 1.0 = x" (B (FMul, X, f 1.0)) X;
      row "x fdiv 1.0 = x" (B (FDiv, X, f 1.0)) X;
      row "x shl 0 = x" (B (Shl, X, i 0)) X ]

type 'a expr = Un of Op.unop * 'a | Bin of Op.binop * 'a * 'a

type 'a view = {
  const : 'a -> Value.t option;
  def : 'a -> 'a expr option;
  equal : 'a -> 'a -> bool;
}

type 'a value = Operand of 'a | Const of Value.t | Eval of 'a value expr

(* Operators are constant constructors, so [==] compares them. *)
module Utbl = Hashtbl.Make (struct
  type t = Op.unop

  let equal = ( == )

  let hash = Hashtbl.hash
end)

module Btbl = Hashtbl.Make (struct
  type t = Op.binop

  let equal = ( == )

  let hash = Hashtbl.hash
end)

type index = { un : row list Utbl.t; bin : row list Btbl.t }

let index rows =
  let un = Utbl.create 4 and bin = Btbl.create 32 in
  let add find replace tbl op row =
    replace tbl op (row :: Option.value (find tbl op) ~default:[])
  in
  List.iter
    (fun row ->
      match row.lhs with
      | U (op, _) -> add Utbl.find_opt Utbl.replace un op row
      | B (op, _, _) -> add Btbl.find_opt Btbl.replace bin op row
      | X | Y | C | K _ | N | Pow2 -> invalid_arg "Algebra.index")
    (List.rev rows);
  { un; bin }

(* A row's operands, bound while it is matched. *)
type 'a env = {
  mutable x : 'a option;
  mutable y : 'a option;
  mutable c : 'a option;
  mutable n : int;
}

(* Whether operand [a] fits [pat], binding the row's operands. *)
let rec fits view env pat a =
  match pat with
  | X -> (
    match env.x with
    | Some x -> view.equal x a
    | None ->
      env.x <- Some a;
      true)
  | Y -> (
    match env.y with
    | Some y -> view.equal y a
    | None ->
      env.y <- Some a;
      true)
  | C ->
    env.c <- Some a;
    Option.is_some (view.const a)
  | K v -> ( match view.const a with Some w -> Value.equal v w | None -> false)
  | N -> (
    match view.const a with
    | Some (Value.I k) when k >= 0 && k <= shift_limit ->
      env.n <- k;
      true
    | Some _ | None -> false)
  | Pow2 -> false
  | U (op, p) -> (
    match view.def a with Some (Un (op', b)) when op == op' -> fits view env p b | _ -> false)
  | B (op, p, q) -> (
    match view.def a with
    | Some (Bin (op', b, c)) when op == op' -> fits view env p b && fits view env q c
    | _ -> false)

(* Whether [row]'s left side fits the operands of [e]. *)
let fit view env row e =
  env.x <- None;
  env.y <- None;
  match (row.lhs, e) with
  | U (_, p), Un (_, a) -> fits view env p a
  | B (_, p, q), Bin (_, a, b) -> fits view env p a && fits view env q b
  | _ -> false

let rec instantiate env = function
  | X -> Operand (Option.get env.x)
  | Y -> Operand (Option.get env.y)
  | C -> Operand (Option.get env.c)
  | K v -> Const v
  | N -> Const (Value.I env.n)
  | Pow2 -> Const (Value.I (1 lsl env.n))
  | U (op, p) -> Eval (Un (op, instantiate env p))
  | B (op, p, q) ->
    let a = instantiate env p in
    let b = instantiate env q in
    Eval (Bin (op, a, b))

let apply view index e =
  let rows, swapped =
    match e with
    | Un (op, _) -> (Utbl.find_opt index.un op, None)
    | Bin (op, a, b) ->
      ( Btbl.find_opt index.bin op,
        if Op.commutative op && not (view.equal a b) then Some (Bin (op, b, a)) else None )
  in
  match rows with
  | None -> None
  | Some rows ->
    let env = { x = None; y = None; c = None; n = 0 } in
    List.find_map
      (fun row ->
        if fit view env row e || (match swapped with Some s -> fit view env row s | None -> false)
        then Some (instantiate env row.rhs)
        else None)
      rows
