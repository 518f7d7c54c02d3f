(** Natural loops and nesting depth.

    A back edge is an edge [t -> h] where [h] dominates [t]; the natural
    loop of that edge is [h] plus every reachable block that reaches [t]
    without passing through [h]. Nesting depth feeds intuition checks on the
    reassociation ranks ("the rank of a loop-variant expression corresponds
    to the nesting depth of the loop in which it changes", Section 3.1). *)

type loop = {
  header : int;
  body : int list;  (** includes the header *)
}

type t = {
  loops : loop list;
  depth : int array;  (** nesting depth per block id; 0 = not in any loop *)
}

let natural_loop preds ~header ~latch =
  let in_loop = Hashtbl.create 16 in
  Hashtbl.replace in_loop header ();
  let rec add b =
    if not (Hashtbl.mem in_loop b) then begin
      Hashtbl.replace in_loop b ();
      Array.iter add preds.(b)
    end
  in
  add latch;
  { header; body = List.sort compare (Hashtbl.fold (fun b () acc -> b :: acc) in_loop []) }

let compute (g : Dataflow.graph) =
  let dom = Dom.compute g in
  let loops = ref [] in
  Array.iteri
    (fun t succs ->
      Array.iter
        (fun h ->
          if Dom.dominates dom h t then
            loops := natural_loop g.Dataflow.preds ~header:h ~latch:t :: !loops)
        succs)
    g.Dataflow.succs;
  (* Merge loops sharing a header (multiple latches -> one loop). *)
  let by_header = Hashtbl.create 16 in
  List.iter
    (fun l ->
      let body =
        match Hashtbl.find_opt by_header l.header with
        | None -> l.body
        | Some prev -> List.sort_uniq compare (prev @ l.body)
      in
      Hashtbl.replace by_header l.header body)
    !loops;
  let loops =
    Hashtbl.fold (fun header body acc -> { header; body } :: acc) by_header []
    |> List.sort (fun a b -> compare a.header b.header)
  in
  let depth = Array.make (Array.length g.Dataflow.succs) 0 in
  List.iter (fun l -> List.iter (fun b -> depth.(b) <- depth.(b) + 1) l.body) loops;
  { loops; depth }

let loops t = t.loops

let depth t id = if id < Array.length t.depth then t.depth.(id) else 0
