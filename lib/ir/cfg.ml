(** Control-flow graphs.

    Blocks live in a dense table indexed by block id; removing a block
    leaves a hole (so ids stay stable across passes) and [Epre_opt.Clean]
    compacts when it matters. Successor edges are implied by terminators;
    predecessor lists are recomputed on demand, which keeps every rewriting
    pass honest about invalidation. *)

open Epre_util

type t = {
  blocks : Block.t option Vec.t;
  mutable entry : int;
}

let create () = { blocks = Vec.create (); entry = 0 }

let add_block ?(instrs = []) ~term cfg =
  let id = Vec.length cfg.blocks in
  let b = Block.create ~id ~instrs ~term () in
  ignore (Vec.push cfg.blocks (Some b));
  b

let num_blocks cfg = Vec.length cfg.blocks

let find_block cfg id =
  if id < 0 || id >= Vec.length cfg.blocks then None else Vec.get cfg.blocks id

let block cfg id =
  match find_block cfg id with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Cfg.block: no block %d" id)

let mem cfg id = Option.is_some (find_block cfg id)

let remove_block cfg id =
  if id = cfg.entry then invalid_arg "Cfg.remove_block: cannot remove entry";
  Vec.set cfg.blocks id None

let entry cfg = cfg.entry

let set_entry cfg id =
  if not (mem cfg id) then invalid_arg "Cfg.set_entry: no such block";
  cfg.entry <- id

let iter_blocks f cfg =
  Vec.iteri (fun _ b -> match b with Some b -> f b | None -> ()) cfg.blocks

let fold_blocks f acc cfg =
  Vec.fold_left (fun acc b -> match b with Some b -> f acc b | None -> acc) acc cfg.blocks

let blocks cfg = List.rev (fold_blocks (fun acc b -> b :: acc) [] cfg)

let succs cfg id = Block.succs (block cfg id)

(** Predecessor lists, indexed by block id, in ascending id order.
    Includes every source block present in the table, unreachable ones
    too. Read-only analyses take [Dataflow.graph]'s view instead, whose
    predecessor arrays keep the reachable sources only; these lists serve
    where every edge matters (SSA phi arguments, [Routine.validate], the
    verifier's phi rule, [Postdom]'s reverse view) and in passes that
    edit the CFG ([Critical_edges.is_critical] counts unreachable
    sources).
    Duplicate edges (a [Cbr] with equal arms) appear once, as
    [Instr.term_succs] deduplicates them. *)
let preds cfg =
  let n = num_blocks cfg in
  let p = Array.make n [] in
  iter_blocks
    (fun b ->
      (* Dangling targets are diagnosed by [Routine.validate]; ignore them
         here so analyses on ill-formed graphs fail with a proper error. *)
      List.iter
        (fun s -> if s >= 0 && s < n then p.(s) <- b.Block.id :: p.(s))
        (Block.succs b))
    cfg;
  Array.map List.rev p

let exit_blocks cfg =
  List.filter (fun b -> match b.Block.term with Instr.Ret _ -> true | _ -> false)
    (blocks cfg)

(* Retarget every phi argument in [blk] that named predecessor [old_pred] to
   name [new_pred] instead. *)
let retarget_phis blk ~old_pred ~new_pred =
  blk.Block.instrs <-
    List.map
      (function
        | Instr.Phi { dst; args } ->
          let args =
            List.map (fun (l, r) -> if l = old_pred then (new_pred, r) else (l, r)) args
          in
          Instr.Phi { dst; args }
        | i -> i)
      blk.Block.instrs

(** Split the edge [from_ -> to_]: insert a fresh block containing only a
    jump to [to_], retargeting [from_]'s terminator and [to_]'s phis.
    Returns the new block. Used for edge placement in PRE and for phi
    elimination before forward propagation. *)
let split_edge cfg ~from_ ~to_ =
  let src = block cfg from_ in
  let nb = add_block ~term:(Instr.Jump to_) cfg in
  src.Block.term <-
    Instr.map_term_succs (fun s -> if s = to_ then nb.Block.id else s) src.Block.term;
  retarget_phis (block cfg to_) ~old_pred:from_ ~new_pred:nb.Block.id;
  nb

(** Give the entry no predecessor: when some block jumps to the entry, a
    fresh empty block that jumps to the old entry becomes the entry. The
    analyses read the entry as the one block control enters from outside
    (see DESIGN.md, "The entry invariant"); a block that can also be
    re-entered along an edge breaks that reading. *)
let give_entry_no_preds cfg =
  let entry = cfg.entry in
  let enters b =
    match b.Block.term with
    | Instr.Jump t -> t = entry
    | Instr.Cbr { ifso; ifnot; _ } -> ifso = entry || ifnot = entry
    | Instr.Ret _ -> false
  in
  if fold_blocks (fun found b -> found || enters b) false cfg then
    cfg.entry <- (add_block ~term:(Instr.Jump entry) cfg).Block.id

(** Blocks reachable from the entry (DFS over terminator successors). *)
let reachable cfg =
  let seen = Bitset.create (num_blocks cfg) in
  let rec go id =
    if not (Bitset.mem seen id) then begin
      Bitset.add seen id;
      List.iter go (succs cfg id)
    end
  in
  go cfg.entry;
  seen

(** Deep copy (blocks are mutable; passes that want a scratch copy use
    this). *)
let copy cfg =
  let blocks = Vec.create () in
  Vec.iteri
    (fun _ b ->
      let b' =
        Option.map
          (fun b -> Block.create ~id:b.Block.id ~instrs:b.Block.instrs ~term:b.Block.term ())
          b
      in
      ignore (Vec.push blocks b'))
    cfg.blocks;
  { blocks; entry = cfg.entry }

(** Overwrite [cfg] in place with a deep copy of [from]'s blocks and entry.
    [from] stays usable afterwards, so a snapshot can restore a graph more
    than once. *)
let restore cfg ~from =
  Vec.clear cfg.blocks;
  Vec.iteri
    (fun _ b ->
      let b' =
        Option.map
          (fun b -> Block.create ~id:b.Block.id ~instrs:b.Block.instrs ~term:b.Block.term ())
          b
      in
      ignore (Vec.push cfg.blocks b'))
    from.blocks;
  cfg.entry <- from.entry
