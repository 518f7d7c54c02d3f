(** Static equivalence checks for optimizer steps: the exec tier's way to
    skip re-interpreting a program after a step it can prove.

    A checker is a pure function of the routine before a step (the
    harness's snapshot) and after it. It either proves that the two
    routines, run from the same state, take the same path, make the same
    calls, stores and emits, and return the same value, or it declines.
    No pass supplies a witness: the checkers recover the edit from the two
    routines, so a pass cannot talk a checker into accepting anything.

    The proof is relative to one run of the input that completed: a
    deleted load or a deleted division need not be safe on every input,
    only on the run the harness already observed. That is what
    [Harness.supervise] asks of it — the run from [main] it observed
    before the step returned [Ok]. An accepted step also comes with a
    static growth factor: the output's dynamic operation count (fuel,
    phi moves included) is at most that factor times the input's, so the
    harness can keep an upper bound on the current program's fuel without
    running it.

    Three checkers. Each pass names its own on its row of
    [Epre.Pipeline.table] ([checks.certify]):
    - {!motion} ([pre], [pre-classic], [dce]): the output is the input
      with instructions inserted and deleted, jump-only landing blocks on
      existing edges and possibly a new entry block. See the implementation for the rules
      and the soundness argument ("Verified validation of Lazy Code
      Motion", Tristan and Leroy, PLDI 2009, checks lazy code motion the
      same way: availability for deletions, anticipability for
      insertions).
    - {!jump_chains} ([clean]): the two CFGs have the same jump-chain
      normal forms from their entries.
    - {!values} ([constprop], [coalesce], [gvn], [peephole]): the two
      routines, walked side by side, compute the same values into
      registers that may be renamed, with copies moved and evaluations
      folded, dropped or rewritten by the exact identities of
      {!identities}.

    All three decline on SSA routines and on any phi. [reassociation]
    stays observed: it changes float results by rounding and rebuilds
    expression trees, so its output matches its input only up to the
    harness's tolerance. A [peephole] step that rewrites [x fadd 0.0] to
    [x], wrong for [x = -0.0], stays observed too: no identity row holds
    it. *)

open Epre_ir

(** [Some growth] when the step from [before] to [after] is proven
    equivalent on a completed run; [None] when the checker cannot tell. *)
type checker = before:Routine.t -> after:Routine.t -> float option

(** Motion: PRE's insertions and deletions, on edges or at block ends,
    DCE's deletions. Accepts when
    - the output is the input plus inserted instructions, minus deleted
      ones, plus blocks whose only terminator is a jump to an input block
      and that stand on input edges (every other instruction and every
      terminator kept, in order);
    - no deleted instruction is a store, a call or an alloca, and each is
      either redundant (the same destination already holds the same
      expression of the same operands on every path to its site in the
      output) or dead at its site;
    - every inserted instruction is a const, a unop, a binop or a load;
      its destination is dead where it writes it; and it is paid for: on
      every path from it, the next evaluation of its expression is a
      redundant deletion, with no redefinition of an operand in the
      output in between (nor, for a load, a store, call or alloca). That
      is lazy code motion's down-safety, counted: the input evaluates the
      expression there on the same operand values and memory, so the
      insertion cannot fault, not even an int division or a load, and no
      path runs more evaluations than before.

    Liveness here is that of the output with each redundant deletion put
    back, counting the reads of everything but insertions: a register it
    reads must hold the input's value. The growth is one plus the largest
    share, over input blocks, of one jump per traversal when the block
    has an arm to a new landing block (one more for the old entry when
    the entry is new). *)
val motion : checker

(** [clean]: from both entries, follow jumps (and, in the input,
    conditional branches whose arms reach the same block past blocks
    that only jump) to the next real branch or return, concatenating the
    instructions on the way. The instruction
    lists must be equal, returns equal, and branches must test the same
    register with their arms related the same way again; a cycle of jumps
    declines. The growth is the largest ratio of output to input
    operations over the related chains. *)
val jump_chains : checker

(** Value correspondence: [constprop], [coalesce] and [gvn] rename
    registers, move copies and fold constants; [peephole] rewrites by
    algebraic identities. A forward, conditional walk runs the two
    routines' blocks of one id side by side, keeping a value number per
    live register of each (constants numbered by bit pattern, as
    [Value.equal] compares them). An evaluation's number is its constant
    when it folds, else that of the right side of the first row of
    {!identities} its left side fits (a commutative operator's operands
    taken either way), else that of an equal evaluation earlier in the
    block. It accepts when
    - matched instructions have the same kind, operator or callee, and
      operands with equal numbers; or are two unops or binops whose
      numbers agree, the output's operands holding the types its
      operator reads (known from constants, from the evaluations that
      made them, or from what the input's evaluation read) and the
      output's being no integer division or remainder; both destinations
      then get one number;
    - the copies and consts of either side run alone, and an output copy
      reads a register written on every path;
    - an input unop or binop the output lacks is dropped: it was folded
      or redundant, and the observed run did not fault on it;
    - every load, store, call and alloca is matched;
    - a block only the output has stands on an edge, holds copies and
      consts only, and jumps to the input's target;
    - returns return equal numbers and branches test equal numbers; a
      branch on a constant input condition goes one way, and the output
      may have made it a jump.

    A block's entry state is the meet of its predecessors' (partition
    intersection, iterated to a fixed point over the blocks whose entry
    state changed), renamed canonically: a class is named by its
    constant when every predecessor agrees on one, else by its least
    live member, so no number outlives a loop iteration.

    The growth bounds the output's operations (a block's with the
    landing block it leaves by) against the input's. A block the walk
    enters from one block alone runs at most as often as that block, its
    source; following sources gives paths from blocks that have none,
    and the growth is the largest ratio of the output's to the input's
    operations summed along such a path from its start. So copies SSA
    destruction puts into a jump-only landing block are charged to the
    block before it. *)
val values : checker

(** The identity table's terms: [X] and [Y] are operands, [C] any
    constant, [K v] the constant [v] (bit for bit), [N] an integer
    constant [n] in \[0, 62\] and [Pow2] the constant [2^n]. *)
type term =
  | X
  | Y
  | C
  | K of Value.t
  | N
  | Pow2
  | U of Op.unop * term
  | B of Op.binop * term * term

(** A row: [lhs] and [rhs] are equal under [Value.equal] wherever [lhs]
    evaluates without fault, and then [rhs] does too. *)
type identity = { name : string; lhs : term; rhs : term }

(** The rows {!values} numbers modulo, in the order it tries them: the
    integer identities [Peephole] uses (identity and absorbing elements,
    self-cancellation and self-comparison, [x shl n = x mul 2^n]), double
    negation, the subtraction forms [a + (-b) = a - b], [a - (-b) = a + b]
    and [x - c = x + (-c)] for int and float, [0 - x = -x] for int and
    [-0.0 - x = -x] for float, and [x fsub 0.0], [x fadd -0.0],
    [x fmul 1.0], [x fdiv 1.0] as [x]. [x fadd 0.0 = x] is no row: it is
    wrong for [x = -0.0]. *)
val identities : identity list
