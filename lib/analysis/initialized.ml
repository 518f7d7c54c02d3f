(** Definite assignment as a forward intersection problem. See the
    interface. *)

open Epre_util
open Epre_ir

type t = { res : Dataflow.result; order : Order.t; full : Bitset.t }

let compute (g : Dataflow.graph) (r : Routine.t) =
  let cfg = r.Routine.cfg in
  let width = max 1 r.Routine.next_reg in
  let n = Cfg.num_blocks cfg in
  let gens =
    Array.init n (fun id ->
        let s = Bitset.create width in
        (match Cfg.find_block cfg id with
        | None -> ()
        | Some b ->
          List.iter
            (fun i ->
              match Instr.def i with
              | Some d when d >= 0 && d < width -> Bitset.add s d
              | _ -> ())
            b.Block.instrs);
        s)
  in
  let boundary = Bitset.create width in
  List.iter
    (fun p -> if p >= 0 && p < width then Bitset.add boundary p)
    r.Routine.params;
  let sys =
    { Dataflow.width; gen = gens; kill = Array.make n (Bitset.create width);
      boundary; meet = Dataflow.Inter }
  in
  { res = Dataflow.solve_forward g sys; order = g.Dataflow.order; full = Bitset.full width }

(* The solver leaves unreachable blocks empty; report them as full so the
   verifier never flags dead code for uninitialized reads (it has its own
   unreachability rule). *)
let on_entry t id =
  if Order.is_reachable t.order id then t.res.Dataflow.ins.(id) else t.full
