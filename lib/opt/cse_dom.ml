(** Dominator-based redundancy elimination — method 1 of the paper's
    Section 5.3 hierarchy (Alpern–Wegman–Zadeck's suggestion: "if a value x
    is computed at two points p and q, and p dominates q, then the
    computation at q is redundant and may be deleted").

    Realized as a preorder dominator-tree walk over SSA with a scoped table
    of expressions: SSA operands are never redefined, so an expression seen
    on the walk is valid throughout the subtree and any re-computation below
    is replaced by a copy. Loads are excluded — memory kills are path
    properties that dominance cannot see. The weakest member of the
    hierarchy: it misses the if-then-else join redundancy of Section 2 that
    available-expression CSE catches. *)

open Epre_ir
open Epre_analysis

let key_of i =
  match Expr_key.of_instr i with Some (Expr_key.KLoad _) -> None | k -> k

let run (r : Routine.t) =
  let { Epre_ssa.Ssa.dom; _ } = Epre_ssa.Ssa.build r in
  let cfg = r.Routine.cfg in
  let table : Instr.reg Expr_key.Tbl.t = Expr_key.Tbl.create 64 in
  let deleted = ref 0 in
  let rec walk id =
    let b = Cfg.block cfg id in
    let added = ref [] in
    b.Block.instrs <-
      List.map
        (fun i ->
          match key_of i, Instr.def i with
          | Some key, Some dst -> begin
            match Expr_key.Tbl.find_opt table key with
            | Some earlier ->
              incr deleted;
              Instr.Copy { dst; src = earlier }
            | None ->
              Expr_key.Tbl.add table key dst;
              added := key :: !added;
              i
          end
          | _ -> i)
        b.Block.instrs;
    List.iter walk (Dom.children dom id);
    List.iter (fun key -> Expr_key.Tbl.remove table key) !added
  in
  walk (Cfg.entry cfg);
  let r = Epre_ssa.Ssa.destroy r in
  ignore r;
  !deleted
