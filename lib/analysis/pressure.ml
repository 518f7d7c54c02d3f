(** Register-pressure estimation. See the interface. *)

open Epre_util
open Epre_ir

type t = { blocks : (int * int) list; max : int }

let compute (g : Dataflow.graph) live (r : Routine.t) =
  let acc = ref [] in
  let max_p = ref 0 in
  Cfg.iter_blocks
    (fun b ->
      let id = b.Block.id in
      if Order.is_reachable g.Dataflow.order id then begin
        let set = Bitset.copy (Liveness.live_out live id) in
        List.iter (Bitset.add set) (Instr.term_uses b.Block.term);
        let peak = ref (Bitset.count set) in
        List.iter
          (fun i ->
            (match Instr.def i with
            | Some d -> Bitset.remove set d
            | None -> ());
            (* A phi's arguments live at the predecessors' ends, not
               here — the SSA liveness convention. *)
            (match i with
            | Instr.Phi _ -> ()
            | _ -> List.iter (Bitset.add set) (Instr.uses i));
            peak := max !peak (Bitset.count set))
          (List.rev b.Block.instrs);
        acc := (id, !peak) :: !acc;
        max_p := max !max_p !peak
      end)
    r.Routine.cfg;
  { blocks = List.sort compare !acc; max = !max_p }

let block_pressure t id =
  match List.assoc_opt id t.blocks with Some p -> p | None -> 0

let per_block t = t.blocks

let max_pressure t = t.max
