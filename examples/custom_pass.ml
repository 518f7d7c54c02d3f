(* Writing your own optimizer pass against the public API.

   The optimizer is a pipeline of ILOC -> ILOC filters (the paper's "each
   pass is a Unix filter" architecture). This example writes a small new
   pass from scratch — if-conversion of a constant-difference diamond into
   straight-line arithmetic — and composes it with the library's passes.

   The pass recognizes the shape

       cbr c -> THEN, ELSE
       THEN: x <- a        ELSE: x <- b
       JOIN: ... x ...

   where a and b are known constants, and rewrites the join to compute
   x = b + c' * (a - b) with c' = (c != 0), removing the branch. It uses
   only exported machinery: CFG traversal, SSA, def-use, the builder-free
   instruction constructors, and Routine.validate as the safety net.

   Run with: dune exec examples/custom_pass.exe *)

open Epre_ir

(* ------------------------------------------------------------------ *)
(* The custom pass *)

let block_is_constant_copy cfg du id =
  (* a block with exactly [t <- const v] (possibly preceded by nothing
     else) feeding one copy-like phi argument, ending in a jump *)
  match (Cfg.block cfg id).Block.instrs, (Cfg.block cfg id).Block.term with
  | [ Instr.Const { dst; value } ], Instr.Jump target ->
    ignore du;
    Some (dst, value, target)
  | _ -> None

let if_convert (r : Routine.t) =
  ignore (Epre_ssa.Ssa.build r);
  let cfg = r.Routine.cfg in
  let du = Epre_analysis.Defuse.compute r in
  let converted = ref 0 in
  Cfg.iter_blocks
    (fun b ->
      match b.Block.term with
      | Instr.Cbr { cond; ifso; ifnot } -> begin
        match
          block_is_constant_copy cfg du ifso, block_is_constant_copy cfg du ifnot
        with
        | Some (t1, Value.I a, j1), Some (t2, Value.I b', j2)
          when j1 = j2 && ifso <> ifnot ->
          (* find the phi in the join merging exactly t1/t2 *)
          let join = Cfg.block cfg j1 in
          let phi =
            List.find_opt
              (function
                | Instr.Phi { args; _ } ->
                  List.sort compare (List.map snd args) = List.sort compare [ t1; t2 ]
                | _ -> false)
              join.Block.instrs
          in
          (match phi with
          | Some (Instr.Phi { dst; _ }) when List.length (Cfg.preds cfg).(j1) = 2 ->
            (* rewrite: in b, compute dst = b' + (cond != 0) * (a - b');
               then jump straight to the join *)
            let fresh () = Routine.fresh_reg r in
            let emit i = Block.append b i in
            let zero = fresh () in
            emit (Instr.Const { dst = zero; value = Value.I 0 });
            let norm = fresh () in
            emit (Instr.Binop { op = Op.Ne; dst = norm; a = cond; b = zero });
            let diff = fresh () in
            emit (Instr.Const { dst = diff; value = Value.I (a - b') });
            let scaled = fresh () in
            emit (Instr.Binop { op = Op.Mul; dst = scaled; a = norm; b = diff });
            let base = fresh () in
            emit (Instr.Const { dst = base; value = Value.I b' });
            emit (Instr.Binop { op = Op.Add; dst; a = base; b = scaled });
            b.Block.term <- Instr.Jump j1;
            (* the join keeps its other instructions; the phi is gone *)
            join.Block.instrs <-
              List.filter
                (function Instr.Phi { dst = d; _ } -> d <> dst | _ -> true)
                join.Block.instrs;
            Cfg.remove_block cfg ifso;
            Cfg.remove_block cfg ifnot;
            incr converted
          | _ -> ())
        | _ -> ()
      end
      | _ -> ())
    cfg;
  let r = Epre_ssa.Ssa.destroy r in
  Routine.validate r;
  !converted

(* ------------------------------------------------------------------ *)

let source =
  {|
fn classify(n: int): int {
  var s: int;
  var i: int;
  for i = 1 to n {
    var w: int;
    if (mod(i, 3) == 0) {
      w = 5;
    } else {
      w = 2;
    }
    s = s + w * i;
  }
  return s;
}

fn main(): int {
  var r: int = classify(60);
  emit(r);
  return r;
}
|}

let ops prog =
  let result = Epre_interp.Interp.run prog ~entry:"main" ~args:[] in
  ( Epre_interp.Counts.total result.Epre_interp.Interp.counts,
    result.Epre_interp.Interp.return_value )

let () =
  let prog = Epre_frontend.Frontend.compile_string source in
  let before, v0 = ops prog in
  (* our pass, then the library's cleanup passes *)
  let converted =
    List.fold_left (fun acc r -> acc + if_convert r) 0 (Program.routines prog)
  in
  Epre.Pipeline.run_passes
    (Epre.Passes.named "naming,pre,constprop,peephole,dce,coalesce,clean")
    prog;
  let after, v1 = ops prog in
  assert (v0 = v1);
  Fmt.pr "diamonds if-converted : %d@." converted;
  Fmt.pr "dynamic operations    : %d -> %d@." before after;
  Fmt.pr "@.classify after the custom pipeline:@.%a@." Pp.routine
    (Program.find_exn prog "classify")
