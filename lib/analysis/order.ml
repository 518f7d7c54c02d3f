(** Depth-first orders over the reachable part of a rooted graph.

    Reverse postorder is the traversal the paper uses both for the
    Cooper–Harvey–Kennedy dominator iteration and for assigning ranks during
    global reassociation ("we traverse the control-flow graph in reverse
    postorder, assigning ranks", Section 3.1). *)

open Epre_ir

type t = {
  postorder : int array;  (** block ids in postorder *)
  number : int array;
      (** [number.(id)] is the postorder index of block [id], or -1 if the
          block is unreachable or removed. *)
}

let of_succs ~n ~root succs =
  let number = Array.make n (-1) in
  let acc = ref [] in
  let count = ref 0 in
  let visited = Array.make n false in
  let rec dfs id =
    if not visited.(id) then begin
      visited.(id) <- true;
      List.iter dfs (succs id);
      number.(id) <- !count;
      incr count;
      acc := id :: !acc
    end
  in
  dfs root;
  { postorder = Array.of_list (List.rev !acc); number }

let compute cfg = of_succs ~n:(Cfg.num_blocks cfg) ~root:(Cfg.entry cfg) (Cfg.succs cfg)

let postorder t = t.postorder

let reverse_postorder t =
  let n = Array.length t.postorder in
  Array.init n (fun i -> t.postorder.(n - 1 - i))

let postorder_number t id = t.number.(id)

let is_reachable t id = id >= 0 && id < Array.length t.number && t.number.(id) >= 0

(** Reverse-postorder position: entry gets 0. *)
let rpo_number t id =
  let po = t.number.(id) in
  if po < 0 then -1 else Array.length t.postorder - 1 - po
