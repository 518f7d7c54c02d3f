(** Dominators and dominance frontiers of a graph view.

    Immediate dominators via the Cooper–Harvey–Kennedy iterative algorithm
    over reverse postorder; dominance frontiers per Cytron et al., which the
    SSA construction pass consumes for phi placement. [Postdom] runs the
    same computation on the reverse view. *)

type t = {
  idom : int array;
      (** [idom.(id)] is the immediate dominator of node [id]; the root is
          its own idom; -1 for unreachable nodes. *)
  children : int list array;  (** dominator-tree children *)
  frontier : int list array;  (** dominance frontier DF(id) *)
}

let intersect ~po_number idom a b =
  (* Walk both fingers up the (partially built) dominator tree; the node
     with the *smaller* postorder number is deeper, so advance it. *)
  let rec go a b =
    if a = b then a
    else if po_number.(a) < po_number.(b) then go idom.(a) b
    else go a idom.(b)
  in
  go a b

let compute (g : Dataflow.graph) =
  let n = Array.length g.Dataflow.preds in
  let po_number = Array.init n (Order.postorder_number g.Dataflow.order) in
  let idom = Array.make n (-1) in
  let root = g.Dataflow.entry and preds = g.Dataflow.preds and rpo = g.Dataflow.rpo in
  idom.(root) <- root;
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        if b <> root then begin
          let new_idom =
            Array.fold_left
              (fun acc p ->
                if idom.(p) < 0 then acc
                else if acc < 0 then p
                else intersect ~po_number idom acc p)
              (-1) preds.(b)
          in
          if idom.(b) <> new_idom then begin
            idom.(b) <- new_idom;
            changed := true
          end
        end)
      rpo
  done;
  let children = Array.make n [] in
  Array.iter
    (fun b -> if b <> root then children.(idom.(b)) <- b :: children.(idom.(b)))
    rpo;
  Array.iteri (fun i cs -> children.(i) <- List.rev cs) children;
  (* Every reachable node has an idom by now, so a node's reachable
     predecessors are exactly its processed ones. *)
  let frontier = Array.make n [] in
  Array.iter
    (fun b ->
      if Array.length preds.(b) >= 2 then
        Array.iter
          (fun p ->
            let runner = ref p in
            while !runner <> idom.(b) do
              if not (List.mem b frontier.(!runner)) then
                frontier.(!runner) <- b :: frontier.(!runner);
              runner := idom.(!runner)
            done)
          preds.(b))
    rpo;
  { idom; children; frontier }

let idom t id = t.idom.(id)

let children t id = t.children.(id)

let frontier t id = t.frontier.(id)

(** [dominates t a b]: does [a] dominate [b] (reflexively)? *)
let dominates t a b =
  let rec climb b = if b = a then true else if t.idom.(b) = b || t.idom.(b) < 0 then false else climb t.idom.(b) in
  if t.idom.(b) < 0 then false else climb b

(** Preorder walk of the dominator tree from the entry. *)
let iter_tree t ~entry f =
  let rec go id =
    f id;
    List.iter go t.children.(id)
  in
  go entry
