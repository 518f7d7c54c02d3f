(** Partial redundancy elimination with edge placement.

    The engine behind the paper's "partial" optimization level. We use the
    Drechsler–Stadel style edge-placement formulation in its unidirectional
    earliest/later form (equivalent to Knoop–Rüthing–Steffen lazy code
    motion; Drechsler and Stadel themselves recast their simplification this
    way) over the expression universe of [Epre_analysis.Expr_universe]:

    - availability (forward, intersection) and anticipability (backward,
      intersection) from the usual ANTLOC/COMP/KILL local sets;
    - [EARLIEST(i,j) = ANTIN(j) ∧ ¬AVOUT(i) ∧ (KILL(i) ∨ ¬ANTOUT(i))] on
      edges, with a virtual edge into the entry so expressions anticipated
      at routine entry have a legal insertion point;
    - [LATER]/[LATERIN] push insertions down to the latest point that still
      covers every deletion (lazy placement: minimal register pressure, and
      — the property Section 2 highlights — no execution path ever gets
      longer);
    - [INSERT(i,j) = LATER(i,j) ∧ ¬LATERIN(j)], placed on the (pre-split)
      edge; [DELETE(j) = ANTLOC(j) ∧ ¬LATERIN(j)].

    A single data-flow round moves only expressions whose operands are not
    redefined by a dominating subexpression evaluation in the same block —
    i.e. depth-one expressions. Under the Section 2.2 naming discipline a
    composite expression becomes movable exactly when its subexpressions
    have moved, so [run] iterates rounds (each followed by an
    available-expression deletion sweep, which also subsumes global CSE) to
    a fixed point. This is the classic behaviour of Morel–Renvoise style
    PRE on three-address code. *)

open Epre_util
open Epre_ir
open Epre_analysis
open Epre_opt

type stats = {
  mutable inserted : int;
  mutable deleted : int;
  mutable cse_deleted : int;
  mutable rounds : int;
}

let instr_of_key (key : Expr_universe.key) ~dst =
  match key with
  | Expr_universe.KConst value -> Instr.Const { dst; value }
  | Expr_universe.KUnop (op, src) -> Instr.Unop { op; dst; src }
  | Expr_universe.KBinop (op, a, b) -> Instr.Binop { op; dst; a; b }
  | Expr_universe.KLoad addr -> Instr.Load { dst; addr }

(* One LCM round; returns (inserted, deleted, universe). The universe is
   the round's, for its CSE sweep to reuse: insertions and deletions only
   add or remove evaluations of names already in it, so rebuilding it
   would give the same one. The exception is an inserted key that is not
   [=] to itself (a [KConst nan]): a second definition of such a name
   drops it from a rebuilt universe, so then the sweep rebuilds. *)
let lcm_round ?(include_loads = true) (r : Routine.t) =
  ignore (Epre_ssa.Critical_edges.split_all r);
  let cfg = r.Routine.cfg in
  let uni = Expr_universe.build r in
  let fl = Expr_flow.build ~include_loads ~uni r in
  let width = fl.Expr_flow.width in
  if width = 0 then (0, 0, Some uni)
  else begin
    let antloc = fl.Expr_flow.local.Expr_universe.antloc in
    let order = Order.compute cfg in
    let preds = Cfg.preds cfg in
    let entry = Cfg.entry cfg in
    (* The earliest/later placement, shared with the redundancy auditor
       (see [Expr_flow.lcm_placement] for the equations). *)
    let { Expr_flow.laterin; later; later_virtual } =
      Expr_flow.lcm_placement fl
    in
    (* --- Transformation --- *)
    let exprs = Expr_universe.exprs uni in
    let inserted = ref 0 in
    let reusable = ref true in
    let insert_instrs idx =
      let e = exprs.(idx) in
      if e.Expr_universe.key <> e.Expr_universe.key then reusable := false;
      instr_of_key e.Expr_universe.key ~dst:e.Expr_universe.name
    in
    (* Insertions on real edges. *)
    let edges =
      Cfg.fold_blocks
        (fun acc b ->
          if Order.is_reachable order b.Block.id then
            List.fold_left (fun acc s -> (b.Block.id, s) :: acc) acc (Block.succs b)
          else acc)
        [] cfg
    in
    List.iter
      (fun (i, j) ->
        let ins = later i j in
        Bitset.diff_into ~dst:ins laterin.(j);
        if not (Bitset.is_empty ins) then begin
          let instrs = List.map insert_instrs (Bitset.elements ins) in
          inserted := !inserted + List.length instrs;
          if List.length (Cfg.succs cfg i) = 1 then begin
            let ib = Cfg.block cfg i in
            ib.Block.instrs <- ib.Block.instrs @ instrs
          end
          else begin
            (* The edge was split if critical, so j has a single pred. *)
            assert (List.length preds.(j) = 1);
            let jb = Cfg.block cfg j in
            jb.Block.instrs <- instrs @ jb.Block.instrs
          end
        end)
      edges;
    (* Insertion "before the entry" lands at the top of the entry block. *)
    let entry_ins = Bitset.copy later_virtual in
    Bitset.diff_into ~dst:entry_ins laterin.(entry);
    if not (Bitset.is_empty entry_ins) then begin
      let instrs = List.map insert_instrs (Bitset.elements entry_ins) in
      inserted := !inserted + List.length instrs;
      let eb = Cfg.block cfg entry in
      eb.Block.instrs <- instrs @ eb.Block.instrs
    end;
    (* Deletions: every evaluation of e before the first kill of e in a
       DELETE block — they all produce the value now available in e's
       name. *)
    let deleted = ref 0 in
    Cfg.iter_blocks
      (fun b ->
        let id = b.Block.id in
        if Order.is_reachable order id then begin
          let del = Bitset.copy antloc.(id) in
          Bitset.diff_into ~dst:del laterin.(id);
          if not (Bitset.is_empty del) then begin
            let killed = Bitset.create width in
            b.Block.instrs <-
              List.filter
                (fun i ->
                  let drop =
                    match Expr_universe.key_of i, Instr.def i with
                    | Some _, Some dst -> begin
                      match Expr_universe.expr_of_name uni dst with
                      | Some e ->
                        let idx = e.Expr_universe.index in
                        Bitset.mem del idx && not (Bitset.mem killed idx)
                      | None -> false
                    end
                    | _ -> false
                  in
                  if not drop then begin
                    let reg_kills, mem_kills = Expr_universe.kills_of_instr uni i in
                    List.iter (Bitset.add killed) reg_kills;
                    List.iter (Bitset.add killed) mem_kills
                  end
                  else incr deleted;
                  drop = false)
                b.Block.instrs
          end
        end)
      cfg;
    (!inserted, !deleted, if !reusable then Some uni else None)
  end

let max_rounds = 16

(** Run PRE to a fixed point. [include_loads] controls whether memory loads
    participate (killed by stores and calls); the paper's array-heavy suite
    needs them. *)
let run ?(include_loads = true) (r : Routine.t) =
  if r.Routine.in_ssa then invalid_arg "Pre.run: requires non-SSA code";
  let stats = { inserted = 0; deleted = 0; cse_deleted = 0; rounds = 0 } in
  let rec go n =
    if n < max_rounds then begin
      let ins, del, uni = lcm_round ~include_loads r in
      let cse = Cse_avail.run ?uni r in
      stats.inserted <- stats.inserted + ins;
      stats.deleted <- stats.deleted + del;
      stats.cse_deleted <- stats.cse_deleted + cse;
      stats.rounds <- stats.rounds + 1;
      if ins + del + cse > 0 then go (n + 1)
    end
  in
  go 0;
  stats
