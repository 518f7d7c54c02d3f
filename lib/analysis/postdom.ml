(** Postdominators and control dependence.

    Postdominators are dominators of the reverse CFG rooted at a virtual
    exit that collects every [Ret] block: [Dom] on the reverse view.
    Control dependence is the dominance frontier of the reverse graph
    (Cytron et al.): block [b] is control-dependent on branch block [p]
    when [p] decides whether [b] executes. Consumed by aggressive dead
    code elimination ([Epre_opt.Adce]).

    Blocks that cannot reach an exit (infinite loops) have no postdominator
    ([ipostdom] = -1 besides the virtual exit); clients must treat them
    conservatively. *)

open Epre_ir

type t = { exit_node : int; dom : Dom.t }

(* Nodes [0..n]: the virtual exit [n] is the root and its successors are
   the [Ret] blocks; every other node's successors are its CFG
   predecessors. *)
let compute cfg =
  let n = Cfg.num_blocks cfg in
  let preds = Cfg.preds cfg in
  let exits = List.map (fun b -> b.Block.id) (Cfg.exit_blocks cfg) in
  let reverse = Dataflow.view ~n:(n + 1) ~root:n (fun id -> if id = n then exits else preds.(id)) in
  { exit_node = n; dom = Dom.compute reverse }

let exit_node t = t.exit_node

let in_range t id = id >= 0 && id <= t.exit_node

let ipostdom t id = if in_range t id then Dom.idom t.dom id else -1

(* The reverse dominance frontier: in the reverse graph [id] is reached
   through a join at each block whose branch decides it. *)
let control_deps t id = if in_range t id then Dom.frontier t.dom id else []

let postdominates t a b = in_range t b && Dom.dominates t.dom a b
