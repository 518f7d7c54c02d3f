(** Chaitin-style copy coalescing (the paper's final cleanup: "the
    coalescing phase of a Chaitin-style global register allocator will
    remove unnecessary copy instructions").

    Builds the interference relation from liveness — a definition point
    interferes with everything live across it, except that a copy's
    destination does not interfere with its source — then merges the two
    names of every copy whose classes do not interfere, and rewrites.
    Repeats until a pass removes nothing: merging frees further copies. *)

open Epre_util
open Epre_ir
open Epre_analysis

(* [in_copy.(v)]: [v] is named by some copy, [None] when there are no
   copies. Only such registers can join a class; the interference relation
   is recorded for them alone. *)
let copy_registers (r : Routine.t) ~width =
  let in_copy = Array.make width false in
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (function
          | Instr.Copy { dst; src } ->
            in_copy.(dst) <- true;
            in_copy.(src) <- true
          | _ -> ())
        b.Block.instrs)
    r.Routine.cfg;
  if Array.exists Fun.id in_copy then Some in_copy else None

(* One coalescing round over a routine with copies; returns number of
   copies removed. *)
let coalesce_copies (r : Routine.t) ~width ~in_copy =
  let cfg = r.Routine.cfg in
  let live_info = Liveness.compute (Dataflow.graph cfg) r in
  (* interference.(rep) = original registers live across a definition of
     a member of rep's class, recorded one way only: the relation is the
     symmetric closure, so [interferes] looks in both directions.
     [None] is the empty set. members.(rep) = original registers in rep's
     class, [None] for the singleton [{rep}]. *)
  let interference = Array.make width None in
  let interference_of d =
    match interference.(d) with
    | Some s -> s
    | None ->
      let s = Bitset.create width in
      interference.(d) <- Some s;
      s
  in
  Cfg.iter_blocks
    (fun b ->
      let live = Bitset.copy (Liveness.live_out live_info b.Block.id) in
      List.iter (fun u -> Bitset.add live u) (Instr.term_uses b.Block.term);
      List.iter
        (fun i ->
          (match Instr.def i with
          | Some d ->
            (* Everything live here but [d] itself and a copy's source. *)
            Bitset.remove live d;
            if in_copy.(d) then begin
              let exempt =
                match i with
                | Instr.Copy { src; _ } when Bitset.mem live src -> Some src
                | _ -> None
              in
              Option.iter (Bitset.remove live) exempt;
              Bitset.union_into ~dst:(interference_of d) live;
              Option.iter (Bitset.add live) exempt
            end
          | None -> ());
          List.iter (fun u -> Bitset.add live u) (Instr.uses i))
        (List.rev b.Block.instrs))
    cfg;
  let uf = Union_find.create width in
  let members = Array.make width None in
  let members_of v =
    match members.(v) with
    | Some s -> s
    | None ->
      let s = Bitset.create width in
      Bitset.add s v;
      members.(v) <- Some s;
      s
  in
  let is_param = Array.make width false in
  List.iter (fun p -> is_param.(p) <- true) r.Routine.params;
  (* Does a definition in [a]'s class have a member of [b]'s class live
     across it? *)
  let reaches a b =
    match interference.(a), members.(b) with
    | None, _ -> false
    | Some i, None -> Bitset.mem i b
    | Some i, Some m -> Bitset.intersects i m
  in
  let interferes x y =
    let rx = Union_find.find uf x and ry = Union_find.find uf y in
    reaches rx ry || reaches ry rx
  in
  let merge x y =
    (* Keep a parameter as the representative so entry definitions keep
       their register. *)
    let x, y = if is_param.(Union_find.find uf y) then (y, x) else (x, y) in
    let rx = Union_find.find uf x and ry = Union_find.find uf y in
    Union_find.union_keep_first uf rx ry;
    Bitset.union_into ~dst:(members_of rx) (members_of ry);
    Option.iter (Bitset.union_into ~dst:(interference_of rx)) interference.(ry)
  in
  let merged = ref 0 in
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          match i with
          | Instr.Copy { dst; src } ->
            let rd = Union_find.find uf dst and rs = Union_find.find uf src in
            if rd <> rs && not (is_param.(rd) && is_param.(rs)) && not (interferes rd rs)
            then begin
              merge rd rs;
              incr merged
            end
          | _ -> ())
        b.Block.instrs)
    cfg;
  let removed = ref 0 in
  if !merged > 0 then begin
    let rename v = Union_find.find uf v in
    Cfg.iter_blocks
      (fun b ->
        b.Block.instrs <-
          List.filter_map
            (fun i ->
              let i = Instr.map_uses rename (Instr.map_def rename i) in
              match i with
              | Instr.Copy { dst; src } when dst = src ->
                incr removed;
                None
              | i -> Some i)
            b.Block.instrs;
        b.Block.term <- Instr.map_term_uses rename b.Block.term)
      cfg
  end
  else begin
    (* Even with no merges, drop degenerate self-copies. *)
    Cfg.iter_blocks
      (fun b ->
        b.Block.instrs <-
          List.filter
            (fun i ->
              match i with
              | Instr.Copy { dst; src } when dst = src ->
                incr removed;
                false
              | _ -> true)
            b.Block.instrs)
      cfg
  end;
  !removed

(* One coalescing round; returns number of copies removed. *)
let round (r : Routine.t) =
  let width = max 1 r.Routine.next_reg in
  match copy_registers r ~width with
  | None -> 0
  | Some in_copy -> coalesce_copies r ~width ~in_copy

let max_rounds = 16

let run (r : Routine.t) =
  if r.Routine.in_ssa then invalid_arg "Coalesce.run: requires non-SSA code";
  let total = ref 0 in
  let rec go n =
    if n < max_rounds then begin
      let removed = round r in
      total := !total + removed;
      if removed > 0 then go (n + 1)
    end
  in
  go 0;
  !total
