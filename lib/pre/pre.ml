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
    fixed point, bounded by [max_rounds].

    The rounds of a run share their analyses. The edge engine splits
    critical edges once, before the first round, and nothing a round does
    changes an edge, so the run builds one [Dataflow.graph] view and one
    [Expr_flow.t] (universe, local sets, availability) and carries them
    from round to round: a round recomputes the local sets only of the
    blocks the previous step changed ([Expr_flow.refresh]), and solves
    availability only when some block changed. *)

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

(* Edge placement. An insertion on (i, j) goes to the bottom of i when i
   has one successor; otherwise the edge was split, so j has one
   predecessor and it goes to the top of j. The virtual entry edge's
   insertion goes to the top of the entry. *)
let lcm (fl : Expr_flow.t) =
  let { Dataflow.preds; succs; entry; _ } = fl.Expr_flow.graph in
  let { Expr_flow.laterin; later; later_virtual } = Expr_flow.lcm_placement fl in
  (* Reachable edges; an unreachable block has no successors here. *)
  let edges = ref [] in
  Array.iteri (fun i -> Array.iter (fun j -> edges := (i, j) :: !edges)) succs;
  let on_edge (i, j) =
    let ins = later i j in
    Bitset.diff_into ~dst:ins laterin.(j);
    if Bitset.is_empty ins then None
    else if Array.length succs.(i) = 1 then Some (Bottom i, ins)
    else begin
      assert (Array.length preds.(j) = 1);
      Some (Top j, ins)
    end
  in
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
  { inserts = List.filter_map on_edge !edges @ [ (Top entry, entry_ins) ]; delete }

(* Block-end placement: the PPIN/PPOUT system is bidirectional, so it is
   solved here by a plain round-robin loop rather than by [Dataflow]. *)
let morel_renvoise (fl : Expr_flow.t) =
  let cfg = fl.Expr_flow.cfg in
  let { Dataflow.order; preds; succs; entry; _ } = fl.Expr_flow.graph in
  let width = fl.Expr_flow.width in
  let antloc = fl.Expr_flow.local.Expr_universe.antloc in
  let kill = fl.Expr_flow.local.Expr_universe.kill (* ¬TRANSP *) in
  let avout = (Expr_flow.availability fl).Dataflow.outs in
  let antin = (Expr_flow.anticipability fl).Dataflow.ins in
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
    for id = 0 to nblocks - 1 do
      if Order.is_reachable order id then begin
        update ppout.(id)
          (if Array.length succs.(id) = 0 then Bitset.create width
           else begin
             let acc = Bitset.copy ppin.(succs.(id).(0)) in
             Array.iter (fun s' -> Bitset.inter_into ~dst:acc ppin.(s')) succs.(id);
             acc
           end);
        update ppin.(id)
          (if id = entry then Bitset.create width
           else begin
             let inner = Bitset.copy ppout.(id) in
             Bitset.diff_into ~dst:inner kill.(id);
             Bitset.union_into ~dst:inner antloc.(id);
             Bitset.inter_into ~dst:inner antin.(id);
             Array.iter
               (fun p ->
                 let edge = Bitset.copy ppout.(p) in
                 Bitset.union_into ~dst:edge avout.(p);
                 Bitset.inter_into ~dst:inner edge)
               preds.(id);
             inner
           end)
      end
    done
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

(* One round over [fl], which must describe the routine as it stands:
   place, insert, delete, then the CSE sweep. Returns (inserted, deleted,
   cse_deleted) and the [Expr_flow.t] the sweep ran on, which the next
   round refreshes.

   The universe carries over: insertions, deletions and CSE removals only
   add or remove evaluations of names already in it, so a rebuild would
   return the same one. The exception is an inserted key that is not
   [Expr_key.identical] to itself (a [KConst nan]): a second definition of such a name drops it
   from a rebuilt universe, so then the sweep rebuilds it. Otherwise the
   sweep refreshes [fl]: only the blocks the placement changed get new
   local sets, and when it changed none the sweep reuses [fl] whole,
   availability included. *)
let round place (fl : Expr_flow.t) (r : Routine.t) =
  let cfg = r.Routine.cfg in
  let uni = fl.Expr_flow.uni and width = fl.Expr_flow.width in
  let inserted = ref 0 and deleted = ref 0 and reusable = ref true in
  if width > 0 then begin
    let { inserts; delete } = place fl in
    let exprs = Expr_universe.exprs uni in
    List.iter
      (fun (site, set) ->
        if not (Bitset.is_empty set) then begin
          let instrs =
            List.map
              (fun idx ->
                let { Expr_universe.key; name; _ } = exprs.(idx) in
                if not (Expr_key.identical key key) then reusable := false;
                Expr_key.to_instr key ~dst:name)
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
       kill in the block — each produces the value now in its name. A
       block that loses nothing keeps its list. *)
    Array.iter
      (fun id ->
        let del = delete.(id) in
        if not (Bitset.is_empty del) then begin
          let b = Cfg.block cfg id in
          let killed = Bitset.create width in
          let kill = Bitset.add killed in
          let before = !deleted in
          let kept =
            List.filter
              (fun i ->
                match Expr_universe.evaluated uni i with
                | Some { Expr_universe.index; _ }
                  when Bitset.mem del index && not (Bitset.mem killed index) ->
                  incr deleted;
                  false
                | _ ->
                  Expr_universe.iter_kills uni i kill;
                  true)
              b.Block.instrs
          in
          if !deleted > before then b.Block.instrs <- kept
        end)
      fl.Expr_flow.graph.Dataflow.rpo
  end;
  let fl =
    if !reusable then Expr_flow.refresh fl r
    else Expr_flow.make ~uni:(Expr_universe.build r) ~graph:fl.Expr_flow.graph r
  in
  let cse = Cse_avail.sweep fl in
  (!inserted, !deleted, cse, fl)

(* Both placements assume an entry that no edge enters: the virtual edge
   into it stands for the routine's start alone. Edges never change after
   the first round's split, so one graph view serves every round of the
   run. *)
let drive ~name ~split place (r : Routine.t) =
  if r.Routine.in_ssa then invalid_arg (name ^ ": requires non-SSA code");
  Cfg.give_entry_no_preds r.Routine.cfg;
  if split then ignore (Epre_ssa.Critical_edges.split_all r);
  let stats = { inserted = 0; deleted = 0; cse_deleted = 0; rounds = 0 } in
  let rec go fl =
    if stats.rounds = max_rounds then fl
    else begin
      let ins, del, cse, fl = round place (Expr_flow.refresh fl r) r in
      stats.inserted <- stats.inserted + ins;
      stats.deleted <- stats.deleted + del;
      stats.cse_deleted <- stats.cse_deleted + cse;
      stats.rounds <- stats.rounds + 1;
      if ins + del + cse > 0 then go fl else fl
    end
  in
  let fl = go (Expr_flow.build r) in
  (stats, fl.Expr_flow.uni)

let run_carrying r = drive ~name:"Pre.run" ~split:true lcm r

let run r = fst (run_carrying r)

let run_classic r = fst (drive ~name:"Pre.run_classic" ~split:false morel_renvoise r)
