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

let run ?uni (r : Routine.t) =
  if r.Routine.in_ssa then invalid_arg "Cse_avail.run: requires non-SSA code";
  let fl = Expr_flow.build ?uni r in
  let uni = fl.Expr_flow.uni in
  let width = fl.Expr_flow.width in
  if width = 0 then 0
  else begin
    let avail = Expr_flow.availability fl in
    let deleted = ref 0 in
    Cfg.iter_blocks
      (fun b ->
        let current = Bitset.copy avail.Dataflow.ins.(b.Block.id) in
        b.Block.instrs <-
          List.filter
            (fun i ->
              let keep =
                match Expr_universe.key_of i, Instr.def i with
                | Some _, Some dst -> begin
                  match Expr_universe.expr_of_name uni dst with
                  | Some e ->
                    if Bitset.mem current e.Expr_universe.index then begin
                      incr deleted;
                      false
                    end
                    else begin
                      Bitset.add current e.Expr_universe.index;
                      true
                    end
                  | None -> true
                end
                | _ -> true
              in
              if keep then begin
                let reg_kills, mem_kills = Expr_universe.kills_of_instr uni i in
                List.iter (Bitset.remove current) reg_kills;
                List.iter (Bitset.remove current) mem_kills
              end;
              keep)
            b.Block.instrs)
      r.Routine.cfg;
    !deleted
  end
