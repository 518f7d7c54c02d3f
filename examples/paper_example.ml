(* The paper's running example, Figures 2 through 10.

   Source (Figure 2):

       FUNCTION foo(y, z)
       S = 0
       X = y + z
       DO I = X, 100
         S = 1 + S + X
       ENDDO
       RETURN S

   This program walks the same pipeline the paper walks and prints the IR at
   each stage: translation (Fig. 3), pruned SSA with ranks (Fig. 4),
   reassociation after phi removal and forward propagation (Figs. 5-7),
   global value numbering (Fig. 8), PRE (Fig. 9), and coalescing (Fig. 10).

   Run with: dune exec examples/paper_example.exe *)

open Epre_ir

let source =
  {|
fn foo(y: int, z: int): int {
  var s: int;
  var x: int = y + z;
  var i: int;
  for i = x to 100 {
    s = 1 + s + x;
  }
  return s;
}
|}

let stage name r = Fmt.pr "=== %s ===@.%a@.@." name Pp.routine r

let () =
  let prog = Epre_frontend.Frontend.compile_string source in
  let foo = Program.find_exn prog "foo" in
  stage "Figure 3: intermediate form" foo;

  (* Figure 4: pruned SSA; copies folded into the phis. *)
  let { Epre_ssa.Ssa.graph; _ } = Epre_ssa.Ssa.build foo in
  Epre_ssa.Ssa_check.check foo;
  stage "Figure 4: pruned SSA form" foo;

  (* The ranks that guide reassociation: constants rank 0, loop-invariant
     values rank 1, loop-variant values the rank of their block. *)
  let ranks = Epre_reassoc.Rank.compute graph foo in
  Fmt.pr "ranks:";
  for v = 0 to foo.Routine.next_reg - 1 do
    let k = Epre_reassoc.Rank.of_reg ranks v in
    if k > 0 || v < List.length foo.Routine.params then Fmt.pr " r%d=%d" v k
  done;
  Fmt.pr "@.@.";

  (* Figures 5-7: phi removal by copies, forward propagation, and
     rank-sorted reassociation, in one pass. *)
  let foo =
    Epre_reassoc.Forward_prop.run
      ~config:{ Epre_reassoc.Expr_tree.default_config with distribute = false }
      graph foo
  in
  stage "Figures 5-7: after forward propagation and reassociation" foo;

  (* Figure 8: partition-based global value numbering; only names change. *)
  ignore (Epre_gvn.Gvn.run foo);
  stage "Figure 8: after value numbering" foo;

  (* Figure 9: partial redundancy elimination hoists the invariant
     expressions out of the loop and deletes the redundant computations. *)
  ignore (Epre_pre.Pre.run foo);
  stage "Figure 9: after partial redundancy elimination" foo;

  (* Figure 10: cleanup - constants folded, dead code swept, copies
     coalesced, empty blocks removed. *)
  ignore (Epre_opt.Constprop.run foo);
  ignore (Epre_opt.Peephole.run foo);
  ignore (Epre_opt.Dce.run foo);
  ignore (Epre_opt.Coalesce.run foo);
  ignore (Epre_opt.Clean.run foo);
  Routine.validate foo;
  stage "Figure 10: after coalescing" foo;

  (* The transformed routine still computes foo(2, 3) = sum. *)
  let result = Epre_interp.Interp.run prog ~entry:"foo" ~args:[ Value.I 2; Value.I 3 ] in
  (match result.Epre_interp.Interp.return_value with
  | Some v -> Fmt.pr "foo(2, 3) = %a  (%d dynamic operations)@." Value.pp v
                (Epre_interp.Counts.total result.Epre_interp.Interp.counts)
  | None -> assert false)
