(** Tests for [Epre_ssa]: pruned construction with copy folding, the SSA
    checker, critical edges, parallel copies, destruction. *)

open Epre_ir
open Epre_ssa

let compile_routine source name =
  Program.find_exn (Helpers.compile source) name

let loop_source =
  {|
fn f(n: int): int {
  var s: int;
  var i: int;
  for i = 1 to n {
    s = s + i;
  }
  return s;
}
|}

let test_build_produces_valid_ssa () =
  let r = compile_routine loop_source "f" in
  ignore (Ssa.build r);
  Ssa_check.check r;
  Alcotest.(check bool) "flagged" true r.Routine.in_ssa

let test_copy_folding_removes_copies () =
  let r = compile_routine loop_source "f" in
  ignore (Ssa.build r);
  let copies =
    Cfg.fold_blocks
      (fun acc b ->
        acc
        + List.length
            (List.filter (function Instr.Copy _ -> true | _ -> false) b.Block.instrs))
      0 r.Routine.cfg
  in
  Alcotest.(check int) "no copies survive folding" 0 copies

let test_no_fold_keeps_copies () =
  let r = compile_routine loop_source "f" in
  ignore (Ssa.build ~config:{ Ssa.fold_copies = false } r);
  Ssa_check.check r;
  let copies =
    Cfg.fold_blocks
      (fun acc b ->
        acc
        + List.length
            (List.filter (function Instr.Copy _ -> true | _ -> false) b.Block.instrs))
      0 r.Routine.cfg
  in
  Alcotest.(check bool) "copies survive" true (copies > 0)

let test_pruned_no_dead_phis () =
  (* x assigned in both branches but never used after: pruned SSA places no
     phi for it. *)
  let source =
    {|
fn f(p: int): int {
  var x: int;
  var live: int;
  if (p > 0) {
    x = 1;
    live = 10;
  } else {
    x = 2;
    live = 20;
  }
  return live;
}
|}
  in
  let r = compile_routine source "f" in
  ignore (Ssa.build r);
  Ssa_check.check r;
  let phis =
    Cfg.fold_blocks (fun acc b -> acc + List.length (Block.phis b)) 0 r.Routine.cfg
  in
  (* only [live] merges; [x] is dead at the join *)
  Alcotest.(check int) "one phi" 1 phis

let test_roundtrip_preserves_semantics () =
  let prog = Helpers.compile loop_source in
  let before = Helpers.run_int ~entry:"f" ~args:[ Value.I 10 ] prog in
  let r = Program.find_exn prog "f" in
  ignore (Ssa.build r);
  let _ = Ssa.destroy r in
  Routine.validate r;
  let after = Helpers.run_int ~entry:"f" ~args:[ Value.I 10 ] prog in
  Alcotest.(check int) "same result" before after;
  Alcotest.(check int) "value" 55 after

let test_checker_rejects_multiple_defs () =
  let b = Builder.start ~name:"bad" ~nparams:0 in
  let t = Builder.int b 1 in
  Builder.emit b (Instr.Const { dst = t; value = Value.I 2 });
  Builder.ret b (Some t);
  let r = Builder.finish b in
  r.Routine.in_ssa <- true;
  Alcotest.check_raises "multiple defs"
    (Ssa_check.Not_ssa "bad: register r0 has multiple definitions") (fun () ->
      Ssa_check.check r)

let test_checker_rejects_undominated_use () =
  (* use in one branch of a value defined in the other *)
  let b = Builder.start ~name:"bad" ~nparams:1 in
  let b1 = Builder.new_block b in
  let b2 = Builder.new_block b in
  Builder.cbr b ~cond:0 ~ifso:b1 ~ifnot:b2;
  Builder.switch b b1;
  let x = Builder.int b 5 in
  Builder.ret b (Some x);
  Builder.switch b b2;
  let y = Builder.binop b Op.Add x x in
  Builder.ret b (Some y);
  let r = Builder.finish b in
  r.Routine.in_ssa <- true;
  Alcotest.check_raises "undominated"
    (Ssa_check.Not_ssa "bad: use of r1 in B2 not dominated by its definition in B1")
    (fun () -> Ssa_check.check r)

let test_use_before_def_raises () =
  (* A register read before any write on some path: construction refuses. *)
  let b = Builder.start ~name:"bad" ~nparams:0 in
  let x = Builder.fresh_reg b in
  let y = Builder.fresh_reg b in
  Builder.emit b (Instr.Copy { dst = y; src = x });
  Builder.emit b (Instr.Const { dst = x; value = Value.I 1 });
  Builder.ret b (Some y);
  let r = Builder.finish b in
  (try
     ignore (Ssa.build r);
     Alcotest.fail "expected Use_before_def"
   with Ssa.Use_before_def { routine; reg } ->
     Alcotest.(check string) "routine" "bad" routine;
     Alcotest.(check int) "register" x reg)

(* ------------------------------------------------------------------ *)
(* Critical edges *)

let test_critical_edge_split () =
  (* 0 -> (1, 2); 1 -> 2. Edge 0 -> 2 is critical. *)
  let b = Builder.start ~name:"c" ~nparams:1 in
  let b1 = Builder.new_block b in
  let b2 = Builder.new_block b in
  Builder.cbr b ~cond:0 ~ifso:b1 ~ifnot:b2;
  Builder.switch b b1;
  Builder.jump b b2;
  Builder.switch b b2;
  Builder.ret b None;
  let r = Builder.finish b in
  let nblocks_before = Cfg.num_blocks r.Routine.cfg in
  let split = Critical_edges.split_all r in
  Alcotest.(check int) "one edge split" 1 split;
  Alcotest.(check int) "one block added" (nblocks_before + 1)
    (Cfg.num_blocks r.Routine.cfg);
  Routine.validate r;
  (* splitting is idempotent *)
  Alcotest.(check int) "second pass splits nothing" 0 (Critical_edges.split_all r)

(* ------------------------------------------------------------------ *)
(* Parallel copies *)

let run_parallel_copy copies env_size =
  (* Simulate the sequentialized copies against the parallel-copy
     semantics over integer environments. *)
  let fresh_counter = ref env_size in
  let fresh () =
    let t = !fresh_counter in
    incr fresh_counter;
    t
  in
  let seq = Parallel_copy.sequentialize ~fresh copies in
  let env = Array.init (env_size + 2 * List.length copies + 4) (fun i -> i) in
  List.iter (fun (d, s) -> env.(d) <- env.(s)) seq;
  env

let test_parallel_copy_swap () =
  (* (r0, r1) <- (r1, r0): the classic swap needs a temp. *)
  let env = run_parallel_copy [ (0, 1); (1, 0) ] 2 in
  Alcotest.(check int) "r0 gets old r1" 1 env.(0);
  Alcotest.(check int) "r1 gets old r0" 0 env.(1)

let test_parallel_copy_chain () =
  (* (r0, r1, r2) <- (r1, r2, 3): a chain needs the right order, no temp. *)
  let env = run_parallel_copy [ (0, 1); (1, 2); (2, 3) ] 4 in
  Alcotest.(check int) "r0" 1 env.(0);
  Alcotest.(check int) "r1" 2 env.(1);
  Alcotest.(check int) "r2" 3 env.(2)

let test_parallel_copy_three_cycle () =
  let env = run_parallel_copy [ (0, 1); (1, 2); (2, 0) ] 3 in
  Alcotest.(check int) "r0" 1 env.(0);
  Alcotest.(check int) "r1" 2 env.(1);
  Alcotest.(check int) "r2" 0 env.(2)

let parallel_copy_model =
  (* Random permutation-ish copy sets: destinations distinct. *)
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 6 in
      let* srcs = list_size (return n) (int_bound 7) in
      let dsts = List.init n Fun.id in
      return (List.combine dsts srcs))
  in
  Helpers.qcheck_case ~count:300 "Parallel_copy" "sequentialization = parallel semantics"
    gen
    (fun copies ->
      let env = run_parallel_copy copies 8 in
      List.for_all (fun (d, s) -> env.(d) = s) copies)

(* Destruction of a swap loop: semantics must survive (lost-copy/swap
   problems). *)
let test_destroy_swap_loop () =
  let source =
    {|
fn f(n: int): int {
  var a: int = 1;
  var b: int = 2;
  var i: int;
  for i = 1 to n {
    var t: int = a;
    a = b;
    b = t;
  }
  return a * 10 + b;
}
|}
  in
  let prog = Helpers.compile source in
  let before = Helpers.run_int ~entry:"f" ~args:[ Value.I 5 ] prog in
  let r = Program.find_exn prog "f" in
  ignore (Ssa.build r);
  Ssa_check.check r;
  let _ = Ssa.destroy r in
  Routine.validate r;
  let after = Helpers.run_int ~entry:"f" ~args:[ Value.I 5 ] prog in
  Alcotest.(check int) "swap survives" before after;
  Alcotest.(check int) "odd swaps" 21 after

let suite =
  [
    Alcotest.test_case "build: valid pruned SSA" `Quick test_build_produces_valid_ssa;
    Alcotest.test_case "build: copies folded into phis" `Quick test_copy_folding_removes_copies;
    Alcotest.test_case "build: fold_copies=false keeps copies" `Quick test_no_fold_keeps_copies;
    Alcotest.test_case "build: pruning avoids dead phis" `Quick test_pruned_no_dead_phis;
    Alcotest.test_case "build/destroy: semantics round trip" `Quick test_roundtrip_preserves_semantics;
    Alcotest.test_case "check: multiple defs rejected" `Quick test_checker_rejects_multiple_defs;
    Alcotest.test_case "check: undominated use rejected" `Quick test_checker_rejects_undominated_use;
    Alcotest.test_case "build: use before def rejected" `Quick test_use_before_def_raises;
    Alcotest.test_case "critical edges: split + idempotent" `Quick test_critical_edge_split;
    Alcotest.test_case "parallel copy: swap" `Quick test_parallel_copy_swap;
    Alcotest.test_case "parallel copy: chain" `Quick test_parallel_copy_chain;
    Alcotest.test_case "parallel copy: 3-cycle" `Quick test_parallel_copy_three_cycle;
    parallel_copy_model;
    Alcotest.test_case "destroy: swap loop semantics" `Quick test_destroy_swap_loop;
  ]
