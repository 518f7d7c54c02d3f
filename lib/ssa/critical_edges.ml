(** Critical-edge splitting.

    An edge [p -> s] is critical when [p] has several successors and [s]
    several predecessors; nothing can be placed "on" such an edge without a
    landing block. Both PRE's edge placement (Drechsler–Stadel) and phi
    elimination before forward propagation require splitting these. *)

open Epre_ir

let is_critical cfg preds ~from_ ~to_ =
  List.length (Cfg.succs cfg from_) > 1 && List.length preds.(to_) > 1

(** Split every critical edge; returns the number of edges split. Only a
    [Cbr] with two targets has several successors. The edges are taken
    from the highest block id down, the [ifnot] edge before the [ifso]
    one, which fixes the ids of the new blocks; predecessor counts are
    those before any split, and a split keeps its source's successor
    count. *)
let split_all (r : Routine.t) =
  let cfg = r.Routine.cfg in
  let preds = Cfg.preds cfg in
  let count = ref 0 in
  let split p s =
    if List.length preds.(s) > 1 then begin
      ignore (Cfg.split_edge cfg ~from_:p ~to_:s);
      incr count
    end
  in
  for p = Cfg.num_blocks cfg - 1 downto 0 do
    match Cfg.find_block cfg p with
    | Some { Block.term = Instr.Cbr { ifso; ifnot; _ }; _ } when ifso <> ifnot ->
      split p ifnot;
      split p ifso
    | Some _ | None -> ()
  done;
  !count
