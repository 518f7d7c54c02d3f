(** Classic Morel–Renvoise partial redundancy elimination, kept as an
    ablation baseline next to the edge-placement engine in [Pre].

    This is the 1979 formulation the paper's Section 2 recounts: the
    bidirectional "placement possible" system

    {v
      PPIN(i)  = ANTIN(i) ∧ (ANTLOC(i) ∨ (TRANSP(i) ∧ PPOUT(i)))
                          ∧ ∏ over preds p of (PPOUT(p) ∨ AVOUT(p))
      PPOUT(i) = ∏ over succs s of PPIN(s)
    v}

    solved to its greatest fixpoint, with insertions at block ends

    {v INSERT(i) = PPOUT(i) ∧ ¬AVOUT(i) ∧ (¬PPIN(i) ∨ ¬TRANSP(i)) v}

    and deletions [DELETE(i) = ANTLOC(i) ∧ PPIN(i)]. Without edge
    placement it can be blocked where a critical edge is the only legal
    insertion point — one of the reasons the paper's implementation uses
    the Drechsler–Stadel variant, and measurable with
    [bench/main.exe ablation]. Like [Pre.run], the pass iterates rounds so
    composite expressions move as chains, with an availability sweep per
    round. *)

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

let mr_round ?(include_loads = true) (r : Routine.t) =
  let cfg = r.Routine.cfg in
  let fl = Expr_flow.build ~include_loads r in
  let uni = fl.Expr_flow.uni in
  let width = fl.Expr_flow.width in
  if width = 0 then (0, 0)
  else begin
    let antloc = fl.Expr_flow.local.Expr_universe.antloc in
    let kill = fl.Expr_flow.local.Expr_universe.kill in
    let avail = Expr_flow.availability fl in
    let ant = Expr_flow.anticipability fl in
    let avout = avail.Dataflow.outs in
    let antin = ant.Dataflow.ins in
    let order = Order.compute cfg in
    let preds = Cfg.preds cfg in
    let entry = Cfg.entry cfg in
    let nblocks = Cfg.num_blocks cfg in
    (* Optimistic initialization; the entry's PPIN and the exits' PPOUT are
       pinned empty. *)
    let ppin = Array.init nblocks (fun _ -> Bitset.full width) in
    let ppout = Array.init nblocks (fun _ -> Bitset.full width) in
    let transp_not id =
      kill.(id)  (* ¬TRANSP = KILL *)
    in
    let changed = ref true in
    while !changed do
      changed := false;
      Cfg.iter_blocks
        (fun b ->
          let id = b.Block.id in
          if Order.is_reachable order id then begin
            (* PPOUT *)
            let new_out =
              match Cfg.succs cfg id with
              | [] -> Bitset.create width
              | s :: rest ->
                let acc = Bitset.copy ppin.(s) in
                List.iter (fun s' -> Bitset.inter_into ~dst:acc ppin.(s')) rest;
                acc
            in
            if not (Bitset.equal new_out ppout.(id)) then begin
              Bitset.assign ~dst:ppout.(id) new_out;
              changed := true
            end;
            (* PPIN *)
            let new_in =
              if id = entry then Bitset.create width
              else begin
                (* ANTLOC ∨ (TRANSP ∧ PPOUT) *)
                let inner = Bitset.copy ppout.(id) in
                Bitset.diff_into ~dst:inner (transp_not id);
                Bitset.union_into ~dst:inner antloc.(id);
                (* ∧ ANTIN *)
                Bitset.inter_into ~dst:inner antin.(id);
                (* ∧ over preds (PPOUT(p) ∨ AVOUT(p)) *)
                List.iter
                  (fun p ->
                    if Order.is_reachable order p then begin
                      let edge = Bitset.copy ppout.(p) in
                      Bitset.union_into ~dst:edge avout.(p);
                      Bitset.inter_into ~dst:inner edge
                    end)
                  preds.(id);
                inner
              end
            in
            if not (Bitset.equal new_in ppin.(id)) then begin
              Bitset.assign ~dst:ppin.(id) new_in;
              changed := true
            end
          end)
        cfg
    done;
    (* Transformation: insert at the end of i when
       PPOUT(i) ∧ ¬AVOUT(i) ∧ (¬PPIN(i) ∨ ¬TRANSP(i)); delete the
       locally-anticipable evaluations where PPIN holds. *)
    let exprs = Expr_universe.exprs uni in
    let inserted = ref 0 in
    Cfg.iter_blocks
      (fun b ->
        let id = b.Block.id in
        if Order.is_reachable order id then begin
          let ins = Bitset.copy ppin.(id) in
          Bitset.diff_into ~dst:ins (transp_not id);
          let all = Bitset.full width in
          Bitset.diff_into ~dst:all ins;
          (* all = ¬PPIN ∨ ¬TRANSP *)
          let set = Bitset.copy ppout.(id) in
          Bitset.diff_into ~dst:set avout.(id);
          Bitset.inter_into ~dst:set all;
          if not (Bitset.is_empty set) then begin
            let instrs =
              List.map
                (fun idx ->
                  let e = exprs.(idx) in
                  Pre.instr_of_key e.Expr_universe.key ~dst:e.Expr_universe.name)
                (Bitset.elements set)
            in
            inserted := !inserted + List.length instrs;
            b.Block.instrs <- b.Block.instrs @ instrs
          end
        end)
      cfg;
    let deleted = ref 0 in
    Cfg.iter_blocks
      (fun b ->
        let id = b.Block.id in
        if Order.is_reachable order id then begin
          let del = Bitset.copy antloc.(id) in
          Bitset.inter_into ~dst:del ppin.(id);
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
                  not drop)
                b.Block.instrs
          end
        end)
      cfg;
    (!inserted, !deleted)
  end

let max_rounds = 16

let run ?(include_loads = true) (r : Routine.t) =
  if r.Routine.in_ssa then invalid_arg "Pre_classic.run: requires non-SSA code";
  let stats = { inserted = 0; deleted = 0; cse_deleted = 0; rounds = 0 } in
  let rec go n =
    if n < max_rounds then begin
      let ins, del = mr_round ~include_loads r in
      let cse = Cse_avail.run r in
      stats.inserted <- stats.inserted + ins;
      stats.deleted <- stats.deleted + del;
      stats.cse_deleted <- stats.cse_deleted + cse;
      stats.rounds <- stats.rounds + 1;
      if ins + del + cse > 0 then go (n + 1)
    end
  in
  go 0;
  stats
