(** Forward propagation (Section 3.1, "Forward Propagation").

    Starting from pruned SSA with copies folded:

    1. critical edges are split and each phi [x <- phi(y, z)] is removed by
       inserting the copies [x <- y] and [x <- z] at the end of the
       appropriate predecessor blocks (a block's phis form a parallel copy;
       the sequentializer below preserves that semantics);
    2. every *root* use — phi-replacement copy sources, values controlling
       program flow, call arguments and returned values, store operands and
       load addresses — gets its full expression tree rebuilt immediately
       before the use by tracing the SSA def-use graph back through pure
       instructions, stopping at anchors (parameters, phi names, loads,
       calls, allocas);
    3. each tree is reassociated ([Expr_tree.normalize]) before being
       lowered back to three-address code, left to right, so the low-ranked
       prefix of every sorted n-ary node becomes a hoistable subexpression.

    Trees duplicate shared subexpressions — the code growth the paper's
    Table 2 quantifies, "in the worst case ... exponential in the size of
    the routine" (Section 4.3) — and the now-unused originals are swept by
    DCE afterwards. As the paper observes, propagation also eliminates
    partially-dead expressions: every propagated expression is used on every
    path from its (new) definition. *)

open Epre_ir

(* ------------------------------------------------------------------ *)
(* Tree construction and materialization                               *)

type ctx = {
  routine : Routine.t;
  ranks : Rank.t;
  config : Expr_tree.config;
  def_instr : Instr.t option array;  (** captured on SSA, before phi removal *)
  anchor : bool array;
}

let rec trace ctx reg : Expr_tree.t =
  if ctx.anchor.(reg) then Leaf { reg; rank = Rank.of_reg ctx.ranks reg }
  else
    match ctx.def_instr.(reg) with
    | Some (Instr.Const { value; _ }) -> Cst value
    | Some (Instr.Unop { op; src; _ }) -> Un { op; arg = trace ctx src }
    | Some (Instr.Binop { op; a; b; _ }) ->
      if
        (if ctx.config.Expr_tree.reassoc_float then Op.associative_modulo_rounding op
         else Op.associative op)
        && Op.commutative op
      then Nary { op; args = [ trace ctx a; trace ctx b ] }
      else Bin { op; a = trace ctx a; b = trace ctx b }
    | Some (Instr.Copy { src; _ }) -> trace ctx src
    | Some _ | None ->
      (* Defensive: treat anything unexpected as an anchor. *)
      Leaf { reg; rank = Rank.of_reg ctx.ranks reg }

(* Lower a (normalized) tree to three-address code, appending to [acc] in
   execution order; returns the register holding the result. *)
let rec lower ctx acc tree : Instr.reg =
  let fresh () = Routine.fresh_reg ctx.routine in
  match (tree : Expr_tree.t) with
  | Leaf { reg; _ } -> reg
  | Cst value ->
    let dst = fresh () in
    acc := Instr.Const { dst; value } :: !acc;
    dst
  | Un { op; arg } ->
    let src = lower ctx acc arg in
    let dst = fresh () in
    acc := Instr.Unop { op; dst; src } :: !acc;
    dst
  | Bin { op; a; b } ->
    let ra = lower ctx acc a in
    let rb = lower ctx acc b in
    let dst = fresh () in
    acc := Instr.Binop { op; dst; a = ra; b = rb } :: !acc;
    dst
  | Nary { op; args } -> begin
    match args with
    | [] | [ _ ] -> invalid_arg "Forward_prop.lower: malformed n-ary node"
    | first :: rest ->
      (* Left-to-right over the rank-sorted operands: the low-rank prefix
         becomes a chain of hoistable subexpressions. *)
      List.fold_left
        (fun accreg arg ->
          let rarg = lower ctx acc arg in
          let dst = fresh () in
          acc := Instr.Binop { op; dst; a = accreg; b = rarg } :: !acc;
          dst)
        (lower ctx acc first) rest
  end

(* Materialize the reassociated tree for operand [reg] in front of a root
   use; returns the replacement register. *)
let materialize ctx acc reg =
  if ctx.anchor.(reg) then reg
  else begin
    let tree = Expr_tree.normalize ctx.config (trace ctx reg) in
    lower ctx acc tree
  end

let is_root_instr = function
  | Instr.Load _ | Instr.Store _ | Instr.Call _ -> true
  | Instr.Copy _ | Instr.Alloca _ | Instr.Const _ | Instr.Unop _ | Instr.Binop _
  | Instr.Phi _ -> false

(* Replace each phi by copies at the end of its predecessors (Figure 5).
   Edges from a multi-successor predecessor are split first — "if
   necessary, the entering edges are split and appropriate predecessor
   blocks are created" — so the copies (and the argument trees materialized
   just above them) execute only along the right edge. Each predecessor's
   copy group keeps parallel-copy semantics: all argument trees are
   evaluated into place first, then the copies run in an order that never
   clobbers a pending read (cycles broken with a temporary). *)
let remove_phis ctx =
  let r = ctx.routine in
  let cfg = r.Routine.cfg in
  let phi_blocks =
    Cfg.fold_blocks (fun acc b -> if Block.phis b <> [] then b.Block.id :: acc else acc) [] cfg
  in
  List.iter
    (fun bid ->
      let b = Cfg.block cfg bid in
      (* Split entering edges whose source has several successors. *)
      let preds_now =
        match Block.phis b with
        | Instr.Phi { args; _ } :: _ -> List.map fst args
        | _ -> assert false
      in
      List.iter
        (fun p ->
          if List.length (Cfg.succs cfg p) > 1 then ignore (Cfg.split_edge cfg ~from_:p ~to_:bid))
        preds_now;
      let phis = Block.phis b in
      let preds =
        match phis with
        | Instr.Phi { args; _ } :: _ -> List.map fst args
        | _ -> assert false
      in
      List.iter
        (fun p ->
          let pb = Cfg.block cfg p in
          let acc = ref [] in
          (* Trees first: they read the pre-copy values of every anchor. *)
          let pairs =
            List.map
              (function
                | Instr.Phi { dst; args } -> (dst, materialize ctx acc (List.assoc p args))
                | _ -> assert false)
              phis
          in
          let seq =
            Epre_ssa.Parallel_copy.sequentialize ~fresh:(fun () -> Routine.fresh_reg r) pairs
          in
          pb.Block.instrs <-
            pb.Block.instrs @ List.rev_append !acc
              (List.map (fun (dst, src) -> Instr.Copy { dst; src }) seq))
        preds;
      b.Block.instrs <- Block.non_phis b)
    phi_blocks;
  r.Routine.in_ssa <- false

(** Run forward propagation on a routine in SSA form; leaves non-SSA
    code. *)
let run ~(config : Expr_tree.config) graph (r : Routine.t) =
  if not r.Routine.in_ssa then invalid_arg "Forward_prop.run: requires SSA form";
  let ranks = Rank.compute graph r in
  let width = max 1 r.Routine.next_reg in
  let anchor = Array.make width false in
  List.iter (fun p -> anchor.(p) <- true) r.Routine.params;
  let def_instr = Array.make width None in
  let phis = ref [] in
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          match i with
          | Instr.Store _ | Instr.Call { dst = None; _ } -> ()
          | Instr.Const { dst; _ } | Instr.Copy { dst; _ } | Instr.Unop { dst; _ }
          | Instr.Binop { dst; _ } | Instr.Load { dst; _ } | Instr.Alloca { dst; _ }
          | Instr.Call { dst = Some dst; _ } ->
            def_instr.(dst) <- Some i
          | Instr.Phi { dst; _ } ->
            def_instr.(dst) <- Some i;
            phis := dst :: !phis)
        b.Block.instrs)
    r.Routine.cfg;
  let phis = List.sort_uniq Int.compare !phis in
  (* A phi whose arguments other than itself all name one value merges
     nothing: make it a copy of that value, so trees trace through it.
     Anchoring it would leave a second run work to do, once the phi's
     self-copy is gone. One such phi can make another trivial (nested
     loops), hence the fixpoint. *)
  let rec root v =
    match def_instr.(v) with Some (Instr.Copy { src; _ }) -> root src | _ -> v
  in
  let only_value dst args =
    List.fold_left
      (fun (acc : [ `None | `One of Instr.reg | `Many ]) (_, a) ->
        match root a, acc with
        | x, _ when x = dst -> acc
        | x, `None -> `One x
        | x, `One y when x = y -> acc
        | _, (`One _ | `Many) -> `Many)
      `None args
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun v ->
        match def_instr.(v) with
        | Some (Instr.Phi { dst; args }) -> (
          match only_value dst args with
          | `One src ->
            def_instr.(v) <- Some (Instr.Copy { dst; src });
            changed := true
          | `None | `Many -> ())
        | _ -> ())
      phis
  done;
  for v = 0 to width - 1 do
    match def_instr.(v) with
    | Some (Instr.Phi _ | Instr.Load _ | Instr.Call _ | Instr.Alloca _) -> anchor.(v) <- true
    | Some (Instr.Const _ | Instr.Copy _ | Instr.Unop _ | Instr.Binop _ | Instr.Store _)
    | None -> ()
  done;
  let ctx = { routine = r; ranks; config; def_instr; anchor } in
  let cfg = r.Routine.cfg in
  (* In-block roots and terminators first: their trees must evaluate before
     any phi copies appended to the block end. *)
  Cfg.iter_blocks
    (fun b ->
      let out = ref [] in
      List.iter
        (fun i ->
          if is_root_instr i then begin
            let i = Instr.map_uses (fun u -> materialize ctx out u) i in
            out := i :: !out
          end
          else out := i :: !out)
        b.Block.instrs;
      let term = Instr.map_term_uses (fun u -> materialize ctx out u) b.Block.term in
      b.Block.term <- term;
      b.Block.instrs <- List.rev !out)
    cfg;
  remove_phis ctx;
  (* The originals that fed only propagated uses are now dead. *)
  ignore (Epre_opt.Dce.run r);
  r
