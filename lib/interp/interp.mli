(** Direct ILOC interpreter.

    Stands in for the paper's instrumented ILOC-to-C back end: executes a
    program and accumulates dynamic operation counts ([Counts]). Works on
    SSA and non-SSA routines alike (phis are evaluated with parallel-copy
    semantics on the arriving edge), so optimized and unoptimized code can
    be differentially tested at every pipeline stage.

    Machine model: an unbounded word-addressed memory of tagged values with
    a bump stack for [Alloca] (released on routine return), one register
    frame per activation, and an [emit] intrinsic appending to an output
    trace — the observable behaviour, alongside the returned value.

    Execution is flat: each [run] lowers a routine on its first call
    (block array by id, non-phi bodies as arrays, callees resolved to
    routine indices, each edge's phi moves as a parallel copy) and caches
    nothing across runs. Registers are typed and unboxed ([int array],
    [float array], a tag byte each). Int-by-int and float-by-float binops
    run on the raw values; memory holds [Value.t]s, and mixed operand
    types, a zero divisor, unops, loads, stores and calls go through
    [Value.t] and [Op.eval_binop]/[Op.eval_unop], so results and error
    texts are the evaluator's.

    Exactness, pinned by [test/test_interp.ml]: fuel burns once per phi
    move, instruction and terminator, before the operation, and
    [Out_of_fuel] fires when it drops below 0; a binop reads [b] before
    [a], a store [src] before [addr], call arguments left to right, phis
    in list order; a jump to a missing block raises
    [Invalid_argument "Cfg.block: no block N"] when it executes, and a
    register at or past [next_reg] OCaml's ["index out of bounds"]. *)

open Epre_ir

(** Uninitialized register reads, unallocated memory accesses, division by
    zero, type mismatches, unknown routines and arity errors. *)
exception Runtime_error of string

(** The instruction budget ([fuel]) ran out — the interpreter's
    infinite-loop guard. *)
exception Out_of_fuel

type result = {
  return_value : Value.t option;
  counts : Counts.t;
  trace : Value.t list;  (** [emit] outputs, in order *)
}

val default_fuel : int

val run : ?fuel:int -> Program.t -> entry:string -> args:Value.t list -> result
