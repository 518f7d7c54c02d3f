(** Per-block register liveness, SSA-aware.

    A phi's arguments are uses at the end of the corresponding predecessor
    (not at the phi's own block), and a phi's destination is born at the top
    of its block — the standard SSA liveness convention. The pruned-SSA
    construction uses [live_in] to avoid placing dead phis; the coalescing
    pass builds its interference relation from [live_out]. *)

open Epre_util
open Epre_ir

type t = {
  live_in : Bitset.t array;
  live_out : Bitset.t array;
  nregs : int;
}

let compute (r : Routine.t) =
  let cfg = r.Routine.cfg in
  let n = Cfg.num_blocks cfg in
  let width = r.Routine.next_reg in
  let upexposed = Array.init n (fun _ -> Bitset.create width) in
  let defs = Array.init n (fun _ -> Bitset.create width) in
  (* phi_in.(p) collects registers consumed by successors' phis along the
     edge leaving block p. *)
  let phi_in = Array.init n (fun _ -> Bitset.create width) in
  Cfg.iter_blocks
    (fun b ->
      let id = b.Block.id in
      List.iter
        (fun i ->
          match i with
          | Instr.Phi { dst; args } ->
            Bitset.add defs.(id) dst;
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
  let order = Order.compute cfg in
  let po = Order.postorder order in
  let phi_defs = Array.init n (fun _ -> Bitset.create width) in
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (function Instr.Phi { dst; _ } -> Bitset.add phi_defs.(b.Block.id) dst | _ -> ())
        b.Block.instrs)
    cfg;
  let succs = Array.make n [] in
  Array.iter (fun id -> succs.(id) <- Cfg.succs cfg id) po;
  (* Two scratch sets for the whole solve: [out] accumulates a block's
     live-out, [contrib] one successor's contribution and then the
     block's live-in. *)
  let out = Bitset.create width and contrib = Bitset.create width in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun id ->
        Bitset.clear out;
        List.iter
          (fun s ->
            Bitset.assign ~dst:contrib live_in.(s);
            Bitset.diff_into ~dst:contrib phi_defs.(s);
            Bitset.union_into ~dst:out contrib)
          succs.(id);
        Bitset.union_into ~dst:out phi_in.(id);
        if not (Bitset.equal out live_out.(id)) then begin
          Bitset.assign ~dst:live_out.(id) out;
          changed := true
        end;
        let inp = contrib in
        Bitset.assign ~dst:inp out;
        Bitset.diff_into ~dst:inp defs.(id);
        Bitset.union_into ~dst:inp upexposed.(id);
        (* Phi destinations are live-in in the "needed at block top" sense
           used by pruned SSA?  No: a phi defines its dst, so it is not
           live-in.  Phi argument liveness is handled through phi_in. *)
        if not (Bitset.equal inp live_in.(id)) then begin
          Bitset.assign ~dst:live_in.(id) inp;
          changed := true
        end)
      po
  done;
  { live_in; live_out; nregs = width }

let live_in t id = t.live_in.(id)

let live_out t id = t.live_out.(id)

let nregs t = t.nregs
