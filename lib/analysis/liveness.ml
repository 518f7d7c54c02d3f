(** Per-block register liveness, SSA-aware.

    A phi's arguments are uses at the end of the corresponding predecessor
    (not at the phi's own block), and a phi's destination is born at the top
    of its block — the standard SSA liveness convention. The pruned-SSA
    construction uses [live_in] to avoid placing dead phis; the coalescing
    pass builds its interference relation from [live_out]. A backward
    client of [Dataflow.iterate]: liveness has a unique least fixed
    point, so the sweep order cannot change the sets. *)

open Epre_util
open Epre_ir

type t = {
  live_in : Bitset.t array;
  live_out : Bitset.t array;
  nregs : int;
}

let compute (g : Dataflow.graph) (r : Routine.t) =
  let cfg = r.Routine.cfg in
  let n = Cfg.num_blocks cfg in
  let width = r.Routine.next_reg in
  let upexposed = Array.init n (fun _ -> Bitset.create width) in
  let defs = Array.init n (fun _ -> Bitset.create width) in
  (* phi_in.(p) collects registers consumed by successors' phis along the
     edge leaving block p. *)
  let phi_in = Array.init n (fun _ -> Bitset.create width) in
  let phi_defs = Array.init n (fun _ -> Bitset.create width) in
  Cfg.iter_blocks
    (fun b ->
      let id = b.Block.id in
      List.iter
        (fun i ->
          match i with
          | Instr.Phi { dst; args } ->
            Bitset.add defs.(id) dst;
            Bitset.add phi_defs.(id) dst;
            List.iter (fun (p, src) -> if Cfg.mem cfg p then Bitset.add phi_in.(p) src) args
          | _ ->
            List.iter
              (fun u -> if not (Bitset.mem defs.(id) u) then Bitset.add upexposed.(id) u)
              (Instr.uses i);
            Option.iter (fun d -> Bitset.add defs.(id) d) (Instr.def i))
        b.Block.instrs;
      List.iter
        (fun u -> if not (Bitset.mem defs.(id) u) then Bitset.add upexposed.(id) u)
        (Instr.term_uses b.Block.term))
    cfg;
  let live_in = Array.init n (fun _ -> Bitset.create width) in
  let live_out = Array.init n (fun _ -> Bitset.create width) in
  (* One scratch set for the whole solve: a successor's contribution,
     then the block's new live-in. *)
  let contrib = Bitset.create width in
  Dataflow.iterate g ~forward:false (fun id ->
      let out = live_out.(id) in
      Bitset.assign ~dst:out phi_in.(id);
      Array.iter
        (fun s ->
          Bitset.assign ~dst:contrib live_in.(s);
          Bitset.diff_into ~dst:contrib phi_defs.(s);
          Bitset.union_into ~dst:out contrib)
        g.Dataflow.succs.(id);
      Bitset.assign ~dst:contrib out;
      Bitset.diff_into ~dst:contrib defs.(id);
      Bitset.union_into ~dst:contrib upexposed.(id);
      if Bitset.equal contrib live_in.(id) then false
      else begin
        Bitset.assign ~dst:live_in.(id) contrib;
        true
      end);
  { live_in; live_out; nregs = width }

let live_in t id = t.live_in.(id)

let live_out t id = t.live_out.(id)

let nregs t = t.nregs
