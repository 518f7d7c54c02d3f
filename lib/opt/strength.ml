(** Operator strength reduction — the pass the paper's optimizer was
    missing ("we are currently missing passes for strength reduction and
    hash-based value numbering... strength reduction should reduce
    non-essential overhead", Section 4.1/5.2). Provided here as an
    extension so the interaction the paper predicts — reassociation letting
    strength reduction introduce fewer induction variables — can be
    measured ([bench/main.exe strength]).

    The classic transformation, on SSA over natural loops:

    - a {e basic induction variable} is a header phi [p = phi(init@pre,
      next@latch)] whose latch value is [p ± c] for a region constant [c]
      (defined outside the loop, or a constant);
    - a {e derived induction variable} is [x = p ± rc] for a region
      constant [rc]: same step as [p];
    - a {e reduction candidate} is [j = x * m] ([m] a region constant, [x]
      an induction variable, integer multiply only — float reductions would
      change rounding): it is replaced by a new induction variable that
      starts at [x0 * m] in the preheader and steps by [c * m] at the
      latch, turning the loop multiply into an add.

    Linear-function test replacement is deliberately out of scope; dead
    original IVs are left for DCE/coalescing to sweep. *)

open Epre_ir
open Epre_analysis

type iv = {
  phi_reg : Instr.reg;  (** the header phi *)
  init : Instr.reg;  (** value entering from the preheader *)
  step : Instr.reg;  (** region-constant step register *)
  step_op : Op.binop;  (** [Add] or [Sub] *)
  (* for derived IVs: x = phi_reg `adjust_op` adjust (Add/Sub), identity for
     basic ones *)
  self : Instr.reg;  (** the register holding this IV's value *)
  adjust : (Op.binop * Instr.reg * bool) option;
      (** (op, rc, iv_on_left); [None] for a basic IV *)
}

type loop_ctx = {
  header : int;
  preheader : int;
  latch : int;
  in_body : int -> bool;
}

(* A region constant: defined outside the loop (params and entry-defined
   values included), or a literal constant — the front end materializes
   literals next to their uses, i.e. inside the loop, but a [Const] can
   always be cloned into the preheader. *)
let region_constant ctx du reg =
  match Defuse.def_site du reg with
  | Some Defuse.Param | None -> true
  | Some (Defuse.At { block; _ }) ->
    (not (ctx.in_body block))
    || (match Defuse.def_instr du reg with Some (Instr.Const _) -> true | _ -> false)

(* A register usable at the end of the preheader: itself when its
   definition already dominates the preheader, or a clone when it is a
   loop-resident literal. *)
let materialize_rc ctx du (r : Routine.t) pre reg =
  let dominates_pre =
    match Defuse.def_site du reg with
    | Some Defuse.Param | None -> true
    | Some (Defuse.At { block; _ }) -> not (ctx.in_body block)
  in
  if dominates_pre then reg
  else
    match Defuse.def_instr du reg with
    | Some (Instr.Const { value; _ }) ->
      let dst = Routine.fresh_reg r in
      Block.append pre (Instr.Const { dst; value });
      dst
    | _ -> invalid_arg "Strength.materialize_rc: not a region constant"

let find_loop_ctx preds (l : Loops.loop) =
  let body = l.Loops.body in
  let in_body b = List.mem b body in
  let outside, inside = List.partition (fun p -> not (in_body p)) preds.(l.Loops.header) in
  match outside, inside with
  | [ preheader ], [ latch ] -> Some { header = l.Loops.header; preheader; latch; in_body }
  | _ -> None

(* Basic IVs of a loop. *)
let basic_ivs ctx du (r : Routine.t) =
  let header_block = Cfg.block r.Routine.cfg ctx.header in
  List.filter_map
    (fun i ->
      match i with
      | Instr.Phi { dst; args = [ (p1, a1); (p2, a2) ] } ->
        let init, next =
          if p1 = ctx.preheader && p2 = ctx.latch then (a1, a2)
          else if p2 = ctx.preheader && p1 = ctx.latch then (a2, a1)
          else (-1, -1)
        in
        if init < 0 then None
        else begin
          match Defuse.def_instr du next with
          | Some (Instr.Binop { op = Op.Add; a; b; _ })
            when a = dst && region_constant ctx du b ->
            Some { phi_reg = dst; init; step = b; step_op = Op.Add; self = dst; adjust = None }
          | Some (Instr.Binop { op = Op.Add; a; b; _ })
            when b = dst && region_constant ctx du a ->
            Some { phi_reg = dst; init; step = a; step_op = Op.Add; self = dst; adjust = None }
          | Some (Instr.Binop { op = Op.Sub; a; b; _ })
            when a = dst && region_constant ctx du b ->
            Some { phi_reg = dst; init; step = b; step_op = Op.Sub; self = dst; adjust = None }
          | _ -> None
        end
      | _ -> None)
    header_block.Block.instrs

(* One level of derivation: x = iv ± rc anywhere in the loop body. *)
let derived_ivs ctx du (r : Routine.t) basics =
  let by_reg = Hashtbl.create 8 in
  List.iter (fun iv -> Hashtbl.replace by_reg iv.phi_reg iv) basics;
  let out = ref [] in
  Cfg.iter_blocks
    (fun b ->
      if ctx.in_body b.Block.id then
        List.iter
          (fun i ->
            match i with
            | Instr.Binop { op = (Op.Add | Op.Sub) as op; dst; a; b = b' } -> begin
              match Hashtbl.find_opt by_reg a, Hashtbl.find_opt by_reg b' with
              | Some iv, None when region_constant ctx du b' ->
                out := { iv with self = dst; adjust = Some (op, b', true) } :: !out
              | None, Some iv when op = Op.Add && region_constant ctx du a ->
                out := { iv with self = dst; adjust = Some (op, a, false) } :: !out
              | _ -> ()
            end
            | _ -> ())
          b.Block.instrs)
    r.Routine.cfg;
  !out

(* j = x * m with x an IV and m a region constant. *)
let reduction_candidates ctx du (r : Routine.t) ivs =
  let by_reg = Hashtbl.create 8 in
  List.iter (fun iv -> Hashtbl.replace by_reg iv.self iv) ivs;
  let out = ref [] in
  Cfg.iter_blocks
    (fun b ->
      if ctx.in_body b.Block.id then
        List.iter
          (fun i ->
            match i with
            | Instr.Binop { op = Op.Mul; dst; a; b = b' } -> begin
              match Hashtbl.find_opt by_reg a, Hashtbl.find_opt by_reg b' with
              | Some iv, None when region_constant ctx du b' -> out := (dst, iv, b') :: !out
              | None, Some iv when region_constant ctx du a -> out := (dst, iv, a) :: !out
              | _ -> ()
            end
            | _ -> ())
          b.Block.instrs)
    r.Routine.cfg;
  !out

let reduce_candidate (r : Routine.t) ctx du (j, iv, m) =
  let cfg = r.Routine.cfg in
  let pre = Cfg.block cfg ctx.preheader in
  let fresh () = Routine.fresh_reg r in
  let m = materialize_rc ctx du r pre m in
  let step = materialize_rc ctx du r pre iv.step in
  (* preheader: x0 = init (± rc); j0 = x0 * m; stepm = step * m *)
  let x0 =
    match iv.adjust with
    | None -> iv.init
    | Some (op, rc, iv_on_left) ->
      let rc = materialize_rc ctx du r pre rc in
      let t = fresh () in
      let a, b = if iv_on_left then (iv.init, rc) else (rc, iv.init) in
      Block.append pre (Instr.Binop { op; dst = t; a; b });
      t
  in
  let j0 = fresh () in
  Block.append pre (Instr.Binop { op = Op.Mul; dst = j0; a = x0; b = m });
  let stepm = fresh () in
  Block.append pre (Instr.Binop { op = Op.Mul; dst = stepm; a = step; b = m });
  (* latch: jnext = jphi ± stepm *)
  let jphi = fresh () in
  let jnext = fresh () in
  let latch = Cfg.block cfg ctx.latch in
  Block.append latch (Instr.Binop { op = iv.step_op; dst = jnext; a = jphi; b = stepm });
  (* header phi *)
  let header = Cfg.block cfg ctx.header in
  header.Block.instrs <-
    Instr.Phi { dst = jphi; args = [ (ctx.preheader, j0); (ctx.latch, jnext) ] }
    :: header.Block.instrs;
  (* replace the multiply with a copy *)
  Cfg.iter_blocks
    (fun b ->
      if ctx.in_body b.Block.id then
        b.Block.instrs <-
          List.map
            (fun i ->
              match i with
              | Instr.Binop { op = Op.Mul; dst; _ } when dst = j ->
                Instr.Copy { dst = j; src = jphi }
              | i -> i)
            b.Block.instrs)
    cfg

(* Ensure the loop has a dedicated preheader block on the preheader->header
   edge: computations we add must not execute on paths that bypass the
   loop. *)
let ensure_preheader (r : Routine.t) ctx =
  let cfg = r.Routine.cfg in
  if List.length (Cfg.succs cfg ctx.preheader) > 1 then begin
    let nb = Cfg.split_edge cfg ~from_:ctx.preheader ~to_:ctx.header in
    { ctx with preheader = nb.Block.id }
  end
  else ctx

let run (r : Routine.t) =
  let { Epre_ssa.Ssa.graph; _ } = Epre_ssa.Ssa.build r in
  let cfg = r.Routine.cfg in
  let loops = Loops.compute graph in
  let preds = Cfg.preds cfg in
  let reduced = ref 0 in
  List.iter
    (fun l ->
      match find_loop_ctx preds l with
      | None -> ()
      | Some ctx ->
        (* recompute def-use per loop: earlier reductions added code *)
        let du = Defuse.compute r in
        let basics = basic_ivs ctx du r in
        if basics <> [] then begin
          let ivs = basics @ derived_ivs ctx du r basics in
          let candidates = reduction_candidates ctx du r ivs in
          if candidates <> [] then begin
            let ctx = ensure_preheader r ctx in
            List.iter
              (fun c ->
                reduce_candidate r ctx du c;
                incr reduced)
              candidates
          end
        end)
    (Loops.loops loops);
  let r = Epre_ssa.Ssa.destroy r in
  ignore r;
  !reduced
