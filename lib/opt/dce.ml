(** Dead code elimination (the paper's baseline DCE, cf. Cytron et al. §7.1
    in spirit).

    Mark/sweep over def-use: roots are instructions with side effects
    (stores, calls), terminator operands, and phi arguments feeding live
    phis. Everything transitively feeding a root is live; the rest —
    including dead loads and allocas, which have no side effects here — is
    swept. Branches are conservatively kept, so control flow is untouched.

    Works on SSA and non-SSA code alike: marking is per-register, which is
    exact for SSA and safely conservative for multi-def registers. *)

open Epre_util
open Epre_ir

let run (r : Routine.t) =
  let cfg = r.Routine.cfg in
  let width = max 1 r.Routine.next_reg in
  let live = Bitset.create width in
  let work = Queue.create () in
  let mark reg =
    if not (Bitset.mem live reg) then begin
      Bitset.add live reg;
      Queue.add reg work
    end
  in
  let mark_uses = function
    | Instr.Const _ | Instr.Alloca _ -> ()
    | Instr.Copy { src; _ } | Instr.Unop { src; _ } -> mark src
    | Instr.Binop { a; b; _ } ->
      mark a;
      mark b
    | Instr.Load { addr; _ } -> mark addr
    | Instr.Store { addr; src } ->
      mark addr;
      mark src
    | Instr.Call { args; _ } -> List.iter mark args
    | Instr.Phi { args; _ } -> List.iter (fun (_, a) -> mark a) args
  in
  (* defs_of.(v) = instructions defining v (to propagate through). *)
  let defs_of = Array.make width [] in
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          (match i with
          | Instr.Store _ | Instr.Call { dst = None; _ } -> ()
          | Instr.Const { dst; _ } | Instr.Copy { dst; _ } | Instr.Unop { dst; _ }
          | Instr.Binop { dst; _ } | Instr.Load { dst; _ } | Instr.Alloca { dst; _ }
          | Instr.Call { dst = Some dst; _ } | Instr.Phi { dst; _ } ->
            defs_of.(dst) <- i :: defs_of.(dst));
          if Instr.has_side_effect i then mark_uses i)
        b.Block.instrs;
      match b.Block.term with
      | Instr.Cbr { cond = x; _ } | Instr.Ret (Some x) -> mark x
      | Instr.Jump _ | Instr.Ret None -> ())
    cfg;
  while not (Queue.is_empty work) do
    let v = Queue.take work in
    List.iter mark_uses defs_of.(v)
  done;
  let dead i =
    match i with
    | Instr.Store _ | Instr.Call _ -> false
    | Instr.Const { dst; _ } | Instr.Copy { dst; _ } | Instr.Unop { dst; _ }
    | Instr.Binop { dst; _ } | Instr.Load { dst; _ } | Instr.Alloca { dst; _ }
    | Instr.Phi { dst; _ } ->
      not (Bitset.mem live dst)
  in
  let removed = ref 0 in
  Cfg.iter_blocks
    (fun b ->
      if List.exists dead b.Block.instrs then
        b.Block.instrs <-
          List.filter
            (fun i ->
              if dead i then begin
                incr removed;
                false
              end
              else true)
            b.Block.instrs)
    cfg;
  !removed
