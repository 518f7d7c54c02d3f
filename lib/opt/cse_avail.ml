(** Classic global common-subexpression elimination over available
    expressions — method 2 of the paper's Section 5.3 hierarchy.

    An expression available on every path into a block (the intersection
    forward problem) need not be re-evaluated until killed: under the naming
    discipline its name still holds the value, so the evaluation is simply
    deleted. Catches the if-then-else join redundancy that dominator-based
    CSE misses, but — unlike PRE — nothing that is only *partially*
    redundant. *)

open Epre_util
open Epre_ir
open Epre_analysis

let sweep (fl : Expr_flow.t) =
  let uni = fl.Expr_flow.uni in
  if fl.Expr_flow.width = 0 then 0
  else begin
    let avin = (Expr_flow.availability fl).Dataflow.ins in
    let { Expr_universe.antloc; repeats; _ } = fl.Expr_flow.local in
    let deleted = ref 0 in
    Cfg.iter_blocks
      (fun b ->
        let id = b.Block.id in
        (* A block loses an evaluation exactly when one is in AVIN and in
           ANTLOC (its expression is not killed before it), or repeats an
           evaluation with no kill between. Only those blocks are walked,
           so every other block keeps its instruction list, by which
           [Expr_flow.refresh] tells unchanged blocks. *)
        if repeats.(id) || Bitset.intersects avin.(id) antloc.(id) then begin
          let current = Bitset.copy avin.(id) in
          let remove = Bitset.remove current in
          b.Block.instrs <-
            List.filter
              (fun i ->
                match Expr_universe.evaluated uni i with
                | Some e when Bitset.mem current e.Expr_universe.index ->
                  incr deleted;
                  false
                | evaluated ->
                  Option.iter (fun e -> Bitset.add current e.Expr_universe.index) evaluated;
                  Expr_universe.iter_kills uni i remove;
                  true)
              b.Block.instrs
        end)
      fl.Expr_flow.cfg;
    !deleted
  end

let run (r : Routine.t) =
  if r.Routine.in_ssa then invalid_arg "Cse_avail.run: requires non-SSA code";
  sweep (Expr_flow.build r)
