(** Partial redundancy elimination: one round driver, two placements.

    The paper's point about PRE (Section 2) is that Morel–Renvoise and its
    Drechsler–Stadel edge-placement variant differ only in where
    insertions go. So [run] and [run_classic] share everything else: the
    expression universe and local sets ([Expr_flow]), applying insertions,
    the deletion sweep, the available-expression CSE sweep that ends each
    round, and the round loop itself. A placement returns only where to
    insert and what to delete.

    {b Edge placement} ([run]) is the Drechsler–Stadel formulation in its
    unidirectional earliest/later form (equivalent to Knoop–Rüthing–Steffen
    lazy code motion), see [Expr_flow.lcm_placement]:
    [INSERT(i,j) = LATER(i,j) ∧ ¬LATERIN(j)] on (pre-split) edges, with a
    virtual edge into the entry; [DELETE(j) = ANTLOC(j) ∧ ¬LATERIN(j)].
    Lazy placement never lengthens an execution path.

    {b Block-end placement} ([run_classic]) is the 1979 Morel–Renvoise
    bidirectional "placement possible" system

    {v
      PPIN(i)  = ANTIN(i) ∧ (ANTLOC(i) ∨ (TRANSP(i) ∧ PPOUT(i)))
                          ∧ ∏ over preds p of (PPOUT(p) ∨ AVOUT(p))
      PPOUT(i) = ∏ over succs s of PPIN(s)
    v}

    solved to its greatest fixpoint, with
    [INSERT(i) = PPOUT(i) ∧ ¬AVOUT(i) ∧ (¬PPIN(i) ∨ ¬TRANSP(i))] at the
    end of [i] and [DELETE(i) = ANTLOC(i) ∧ PPIN(i)]. It does not split
    critical edges, so it is blocked wherever one is the only legal
    insertion point — what the ablation measures.

    A single round moves only depth-one expressions. Under the Section 2.2
    naming discipline a composite expression becomes movable exactly when
    its subexpressions have moved, so both engines iterate rounds to a
    fixed point, bounded by [max_rounds]. *)

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

let max_rounds = 16

(* Where a placement puts an insertion set. *)
type site = Top of int | Bottom of int

type placement = {
  inserts : (site * Bitset.t) list;  (** applied in order *)
  delete : Bitset.t array;  (** per block, evaluations covered *)
}

let instr_of_key (key : Expr_universe.key) ~dst =
  match key with
  | Expr_universe.KConst value -> Instr.Const { dst; value }
  | Expr_universe.KUnop (op, src) -> Instr.Unop { op; dst; src }
  | Expr_universe.KBinop (op, a, b) -> Instr.Binop { op; dst; a; b }
  | Expr_universe.KLoad addr -> Instr.Load { dst; addr }

(* Edge placement. An insertion on (i, j) goes to the bottom of i when i
   has one successor; otherwise the edge was split, so j has one
   predecessor and it goes to the top of j. The virtual entry edge's
   insertion goes to the top of the entry. *)
let lcm (fl : Expr_flow.t) order =
  let cfg = fl.Expr_flow.cfg in
  let preds = Cfg.preds cfg in
  let { Expr_flow.laterin; later; later_virtual } = Expr_flow.lcm_placement fl in
  let edges =
    Cfg.fold_blocks
      (fun acc b ->
        if Order.is_reachable order b.Block.id then
          List.fold_left (fun acc s -> (b.Block.id, s) :: acc) acc (Block.succs b)
        else acc)
      [] cfg
  in
  let on_edge (i, j) =
    let ins = later i j in
    Bitset.diff_into ~dst:ins laterin.(j);
    if Bitset.is_empty ins then None
    else if List.length (Cfg.succs cfg i) = 1 then Some (Bottom i, ins)
    else begin
      assert (List.length preds.(j) = 1);
      Some (Top j, ins)
    end
  in
  let entry = Cfg.entry cfg in
  let entry_ins = Bitset.copy later_virtual in
  Bitset.diff_into ~dst:entry_ins laterin.(entry);
  let delete =
    Array.mapi
      (fun id a ->
        let d = Bitset.copy a in
        Bitset.diff_into ~dst:d laterin.(id);
        d)
      fl.Expr_flow.local.Expr_universe.antloc
  in
  { inserts = List.filter_map on_edge edges @ [ (Top entry, entry_ins) ]; delete }

(* Block-end placement: the PPIN/PPOUT system is bidirectional, so it is
   solved here by a plain round-robin loop rather than by [Dataflow]. *)
let morel_renvoise (fl : Expr_flow.t) order =
  let cfg = fl.Expr_flow.cfg in
  let width = fl.Expr_flow.width in
  let antloc = fl.Expr_flow.local.Expr_universe.antloc in
  let kill = fl.Expr_flow.local.Expr_universe.kill (* ¬TRANSP *) in
  let avout = (Expr_flow.availability fl).Dataflow.outs in
  let antin = (Expr_flow.anticipability fl).Dataflow.ins in
  let preds = Cfg.preds cfg in
  let entry = Cfg.entry cfg in
  let nblocks = Cfg.num_blocks cfg in
  (* Optimistic start; the entry's PPIN and the exits' PPOUT are empty. *)
  let ppin = Array.init nblocks (fun _ -> Bitset.full width) in
  let ppout = Array.init nblocks (fun _ -> Bitset.full width) in
  let changed = ref true in
  let update dst s =
    if not (Bitset.equal s dst) then begin
      Bitset.assign ~dst s;
      changed := true
    end
  in
  while !changed do
    changed := false;
    Cfg.iter_blocks
      (fun b ->
        let id = b.Block.id in
        if Order.is_reachable order id then begin
          update ppout.(id)
            (match Cfg.succs cfg id with
            | [] -> Bitset.create width
            | s :: rest ->
              let acc = Bitset.copy ppin.(s) in
              List.iter (fun s' -> Bitset.inter_into ~dst:acc ppin.(s')) rest;
              acc);
          update ppin.(id)
            (if id = entry then Bitset.create width
             else begin
               let inner = Bitset.copy ppout.(id) in
               Bitset.diff_into ~dst:inner kill.(id);
               Bitset.union_into ~dst:inner antloc.(id);
               Bitset.inter_into ~dst:inner antin.(id);
               List.iter
                 (fun p ->
                   if Order.is_reachable order p then begin
                     let edge = Bitset.copy ppout.(p) in
                     Bitset.union_into ~dst:edge avout.(p);
                     Bitset.inter_into ~dst:inner edge
                   end)
                 preds.(id);
               inner
             end)
        end)
      cfg
  done;
  let inserts =
    List.filter_map
      (fun b ->
        let id = b.Block.id in
        if not (Order.is_reachable order id) then None
        else begin
          (* PPOUT ∧ ¬AVOUT ∧ ¬(PPIN ∧ TRANSP) *)
          let through = Bitset.copy ppin.(id) in
          Bitset.diff_into ~dst:through kill.(id);
          let set = Bitset.copy ppout.(id) in
          Bitset.diff_into ~dst:set avout.(id);
          Bitset.diff_into ~dst:set through;
          Some (Bottom id, set)
        end)
      (Cfg.blocks cfg)
  in
  let delete =
    Array.mapi
      (fun id a ->
        let d = Bitset.copy a in
        Bitset.inter_into ~dst:d ppin.(id);
        d)
      antloc
  in
  { inserts; delete }

(* One round: place, insert, delete, then the CSE sweep. The sweep reuses
   the round's universe: insertions and deletions only add or remove
   evaluations of names already in it, so rebuilding it would give the
   same one. The exception is an inserted key that is not [=] to itself
   (a [KConst nan]): a second definition of such a name drops it from a
   rebuilt universe, so then the sweep rebuilds. Returns
   (inserted, deleted, cse_deleted). *)
let round ~split place (r : Routine.t) =
  if split then ignore (Epre_ssa.Critical_edges.split_all r);
  let cfg = r.Routine.cfg in
  let uni = Expr_universe.build r in
  let fl = Expr_flow.build ~uni r in
  let width = fl.Expr_flow.width in
  let inserted = ref 0 and deleted = ref 0 and reusable = ref true in
  if width > 0 then begin
    let order = Order.compute cfg in
    let { inserts; delete } = place fl order in
    let exprs = Expr_universe.exprs uni in
    List.iter
      (fun (site, set) ->
        if not (Bitset.is_empty set) then begin
          let instrs =
            List.map
              (fun idx ->
                let { Expr_universe.key; name; _ } = exprs.(idx) in
                if key <> key then reusable := false;
                instr_of_key key ~dst:name)
              (Bitset.elements set)
          in
          inserted := !inserted + List.length instrs;
          match site with
          | Top id ->
            let b = Cfg.block cfg id in
            b.Block.instrs <- instrs @ b.Block.instrs
          | Bottom id ->
            let b = Cfg.block cfg id in
            b.Block.instrs <- b.Block.instrs @ instrs
        end)
      inserts;
    (* Deletions: every evaluation of a DELETE expression before its first
       kill in the block — each produces the value now in its name. *)
    Cfg.iter_blocks
      (fun b ->
        let del = delete.(b.Block.id) in
        if Order.is_reachable order b.Block.id && not (Bitset.is_empty del) then begin
          let killed = Bitset.create width in
          b.Block.instrs <-
            List.filter
              (fun i ->
                let drop =
                  match Expr_universe.key_of i, Instr.def i with
                  | Some _, Some dst -> begin
                    match Expr_universe.expr_of_name uni dst with
                    | Some { Expr_universe.index; _ } ->
                      Bitset.mem del index && not (Bitset.mem killed index)
                    | None -> false
                  end
                  | _ -> false
                in
                if drop then incr deleted
                else begin
                  let reg_kills, mem_kills = Expr_universe.kills_of_instr uni i in
                  List.iter (Bitset.add killed) reg_kills;
                  List.iter (Bitset.add killed) mem_kills
                end;
                not drop)
              b.Block.instrs
        end)
      cfg
  end;
  let cse = Cse_avail.run ?uni:(if !reusable then Some uni else None) r in
  (!inserted, !deleted, cse)

let drive ~name ~split place (r : Routine.t) =
  if r.Routine.in_ssa then invalid_arg (name ^ ": requires non-SSA code");
  let stats = { inserted = 0; deleted = 0; cse_deleted = 0; rounds = 0 } in
  let rec go () =
    if stats.rounds < max_rounds then begin
      let ins, del, cse = round ~split place r in
      stats.inserted <- stats.inserted + ins;
      stats.deleted <- stats.deleted + del;
      stats.cse_deleted <- stats.cse_deleted + cse;
      stats.rounds <- stats.rounds + 1;
      if ins + del + cse > 0 then go ()
    end
  in
  go ();
  stats

let run r = drive ~name:"Pre.run" ~split:true lcm r

let run_classic r = drive ~name:"Pre.run_classic" ~split:false morel_renvoise r
