(** The exact algebraic identities, in one table: [Peephole] and [Dvnt]
    rewrite by its rows and [Certify.values] numbers evaluations modulo
    them. The paper leaves this clean-up, rebuilding [x - y] from
    reassociation's [x + (-y)] among it, to "a form of global peephole
    optimization" (Section 3.1).

    Each row's sides are equal under [Value.equal] wherever its left side
    evaluates without fault, and then its right side does too: an integer
    row holds for every integer operand and a float row for every float
    one, NaNs, infinities and both zeros included. So [x fadd 0.0 = x] is
    no row (for [x = -0.0] the sum is [0.0]); [x fadd -0.0 = x] is. *)

(** A row's terms: [X] and [Y] are operands, [C] any constant, [K v] the
    constant [v] (bit for bit), [N] an integer constant [n] in
    \[0, 62\] and [Pow2] the constant [2^n]. *)
type term =
  | X
  | Y
  | C
  | K of Value.t
  | N
  | Pow2
  | U of Op.unop * term
  | B of Op.binop * term * term

(** A row: [lhs] equals [rhs]. A [rewrite] row's right side is an
    operand, a constant or one operator over operands, and a rewriter may
    replace an evaluation fitting [lhs] by it. The other rows hold just
    as well but lead away from a cheaper form ([x sub c] to
    [x add (neg c)]); only the checker reads them. *)
type row = { name : string; lhs : term; rhs : term; rewrite : bool }

(** In the order {!apply} tries them: the identity and absorbing elements
    of the integer operators, self-cancellation and self-comparison,
    [x shl n = x mul 2^n], double negation, the subtraction forms
    [a + (-b) = a - b], [a - (-b) = a + b] and [x - c = x + (-c)] for int
    and float, [0 - x = -x] for int and [-0.0 - x = -x] for float,
    [x fsub 0.0], [x fadd -0.0], [x fmul 1.0] and [x fdiv 1.0] as [x],
    and [x shl 0 = x]. *)
val rows : row list

(** An evaluation over operands of type ['a]. *)
type 'a expr = Un of Op.unop * 'a | Bin of Op.binop * 'a * 'a

(** What a client knows of an operand: its constant, the evaluation that
    made it, and whether two operands hold one value. *)
type 'a view = {
  const : 'a -> Value.t option;
  def : 'a -> 'a expr option;
  equal : 'a -> 'a -> bool;
}

(** A row's right side over the operands its left side bound. *)
type 'a value = Operand of 'a | Const of Value.t | Eval of 'a value expr

(** Rows by the operator at the root of their left side. *)
type index

(** The given rows, in their order. *)
val index : row list -> index

(** The right side of the first indexed row whose left side fits [e], a
    commutative operator's operands tried either way round before the
    next row; [None] when none fits. *)
val apply : 'a view -> index -> 'a expr -> 'a value option
