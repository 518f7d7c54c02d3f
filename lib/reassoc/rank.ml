(** Ranks (Section 3.1, "Computing Ranks").

    Computed on the pruned SSA form during a reverse-postorder traversal of
    the CFG. Blocks are numbered 1, 2, ... as visited; then

    1. a constant receives rank zero;
    2. the result of a phi receives the rank of its block, as do values
       "modified by procedure calls" — call results — and the results of
       loads (and, in our IR, allocas and the routine's parameters, which
       behave like values defined at the entry);
    3. an expression receives the rank of its highest-ranked operand.

    The effect: loop-invariant expressions rank lower than loop-variant
    ones, and the rank of a loop-variant expression tracks the nesting
    depth of the loop that varies it — the property the sort step exploits
    to place hoistable operands together. *)

open Epre_ir
open Epre_analysis

type t = {
  of_reg : int array;
  of_block : int array;  (** 1-based reverse-postorder block numbers *)
}

let compute (g : Dataflow.graph) (r : Routine.t) =
  if not r.Routine.in_ssa then invalid_arg "Rank.compute: requires SSA form";
  let cfg = r.Routine.cfg in
  let rpo = g.Dataflow.rpo in
  let of_block = Array.make (Cfg.num_blocks cfg) 0 in
  Array.iteri (fun i id -> of_block.(id) <- i + 1) rpo;
  let of_reg = Array.make (max 1 r.Routine.next_reg) 0 in
  let entry_rank = of_block.(Cfg.entry cfg) in
  List.iter (fun p -> of_reg.(p) <- entry_rank) r.Routine.params;
  Array.iter
    (fun id ->
      let b = Cfg.block cfg id in
      let block_rank = of_block.(id) in
      List.iter
        (fun i ->
          match i with
          | Instr.Const { dst; _ } -> of_reg.(dst) <- 0
          | Instr.Copy { dst; src } -> of_reg.(dst) <- of_reg.(src)
          | Instr.Unop { dst; src; _ } -> of_reg.(dst) <- of_reg.(src)
          | Instr.Binop { dst; a; b = b'; _ } -> of_reg.(dst) <- max of_reg.(a) of_reg.(b')
          | Instr.Load { dst; _ } | Instr.Alloca { dst; _ } | Instr.Phi { dst; _ } ->
            of_reg.(dst) <- block_rank
          | Instr.Call { dst = Some d; _ } -> of_reg.(d) <- block_rank
          | Instr.Call { dst = None; _ } | Instr.Store _ -> ())
        b.Block.instrs)
    rpo;
  { of_reg; of_block }

let of_reg t reg = t.of_reg.(reg)

let of_block t id = t.of_block.(id)
