(** Tests for [Epre_gvn]: AWZ partition refinement and the value-based
    renaming of Section 3.2. *)

open Epre_ir
open Epre_gvn

(* ------------------------------------------------------------------ *)
(* Partitioning *)

let build_ssa source name =
  let r = Program.find_exn (Helpers.compile source) name in
  ignore (Epre_ssa.Ssa.build r);
  r

(* The paper's Section 2.2 example:
     x = y + z; a = y; b = a + z
   After copy folding, t1 = y + z and t2 = y + z are congruent. *)
let test_paper_naming_example () =
  let source =
    {|
fn f(y: int, z: int): int {
  var x: int = y + z;
  var a: int = y;
  var b: int = a + z;
  return x * b;
}
|}
  in
  let r = build_ssa source "f" in
  let part = Partition.build r in
  (* find the two add destinations *)
  let adds = ref [] in
  Cfg.iter_blocks
    (fun blk ->
      List.iter
        (function
          | Instr.Binop { op = Op.Add; dst; _ } -> adds := dst :: !adds
          | _ -> ())
        blk.Block.instrs)
    r.Routine.cfg;
  match !adds with
  | [ d1; d2 ] ->
    Alcotest.(check bool) "x and b congruent" true (Partition.congruent part d1 d2)
  | ds -> Alcotest.failf "expected two adds, got %d" (List.length ds)

let test_different_ops_not_congruent () =
  let source =
    {|
fn f(y: int, z: int): int {
  var a: int = y + z;
  var b: int = y * z;
  return a + b;
}
|}
  in
  let r = build_ssa source "f" in
  let part = Partition.build r in
  let defs = ref [] in
  Cfg.iter_blocks
    (fun blk ->
      List.iter
        (function
          | Instr.Binop { op = Op.Add; dst; a = 0; b = 1 } -> defs := (`Add, dst) :: !defs
          | Instr.Binop { op = Op.Mul; dst; _ } -> defs := (`Mul, dst) :: !defs
          | _ -> ())
        blk.Block.instrs)
    r.Routine.cfg;
  let add = List.assoc `Add !defs and mul = List.assoc `Mul !defs in
  Alcotest.(check bool) "add !~ mul" false (Partition.congruent part add mul)

let test_optimism_through_loop () =
  (* Two parallel accumulators with identical recurrences: the optimistic
     partition keeps their phis congruent (hash-based value numbering
     cannot see this). *)
  let source =
    {|
fn f(n: int): int {
  var a: int;
  var b: int;
  var i: int;
  for i = 1 to n {
    a = a + 1;
    b = b + 1;
  }
  return a - b;
}
|}
  in
  let r = build_ssa source "f" in
  let part = Partition.build r in
  (* gather the phis of the loop header for a and b: they are the two phis
     merging values with the same structure; find congruent phi pairs. *)
  let phis = ref [] in
  Cfg.iter_blocks
    (fun blk ->
      List.iter
        (function Instr.Phi { dst; _ } -> phis := dst :: !phis | _ -> ())
        blk.Block.instrs)
    r.Routine.cfg;
  let congruent_pairs =
    List.concat_map
      (fun p ->
        List.filter_map
          (fun q -> if p < q && Partition.congruent part p q then Some (p, q) else None)
          !phis)
      !phis
  in
  Alcotest.(check bool) "the a/b phis are congruent" true (congruent_pairs <> [])

let test_constants_partition_by_value () =
  let b = Builder.start ~name:"f" ~nparams:0 in
  let c1 = Builder.int b 5 in
  let c2 = Builder.int b 5 in
  let c3 = Builder.int b 6 in
  let s = Builder.binop b Op.Add c1 c2 in
  Builder.ret b (Some (Builder.binop b Op.Add s c3));
  let r = Builder.finish b in
  ignore (Epre_ssa.Ssa.build r);
  let part = Partition.build r in
  (* after SSA renaming the const regs changed; re-find them *)
  let consts = ref [] in
  Cfg.iter_blocks
    (fun blk ->
      List.iter
        (function
          | Instr.Const { dst; value = Value.I v } -> consts := (v, dst) :: !consts
          | _ -> ())
        blk.Block.instrs)
    r.Routine.cfg;
  let fives = List.filter_map (fun (v, d) -> if v = 5 then Some d else None) !consts in
  let sixes = List.filter_map (fun (v, d) -> if v = 6 then Some d else None) !consts in
  (match fives, sixes with
  | [ f1; f2 ], [ s1 ] ->
    Alcotest.(check bool) "5 ~ 5" true (Partition.congruent part f1 f2);
    Alcotest.(check bool) "5 !~ 6" false (Partition.congruent part f1 s1)
  | _ -> Alcotest.fail "constants not found")

let test_commutative_config () =
  (* x + y vs y + x: congruent only with the commutative extension. The
     front end canonicalizes operand order, so build the routine by hand
     with swapped operands. *)
  let make () =
    let b = Builder.start ~name:"f" ~nparams:2 in
    let t1 = Builder.binop b Op.Add 0 1 in
    let t2 = Builder.binop b Op.Add 1 0 in
    Builder.ret b (Some (Builder.binop b Op.Mul t1 t2));
    let r = Builder.finish b in
    ignore (Epre_ssa.Ssa.build r);
    r
  in
  let find_adds r =
    let adds = ref [] in
    Cfg.iter_blocks
      (fun blk ->
        List.iter
          (function
            | Instr.Binop { op = Op.Add; dst; _ } -> adds := dst :: !adds
            | _ -> ())
          blk.Block.instrs)
      r.Routine.cfg;
    match !adds with [ a; b ] -> (a, b) | _ -> Alcotest.fail "two adds expected"
  in
  let r1 = make () in
  let basic = Partition.build ~config:{ Partition.commutative = false } r1 in
  let a1, b1 = find_adds r1 in
  Alcotest.(check bool) "basic AWZ misses it" false (Partition.congruent basic a1 b1);
  let r2 = make () in
  let ext = Partition.build ~config:{ Partition.commutative = true } r2 in
  let a2, b2 = find_adds r2 in
  Alcotest.(check bool) "commutative variant finds it" true (Partition.congruent ext a2 b2)

let test_loads_never_congruent () =
  let source =
    {|
fn f(a: int[4]): int {
  var u: int = a[1];
  var v: int = a[1];
  return u + v;
}
|}
  in
  let r = build_ssa source "f" in
  let part = Partition.build r in
  let loads = ref [] in
  Cfg.iter_blocks
    (fun blk ->
      List.iter
        (function Instr.Load { dst; _ } -> loads := dst :: !loads | _ -> ())
        blk.Block.instrs)
    r.Routine.cfg;
  match !loads with
  | [ l1; l2 ] ->
    Alcotest.(check bool) "loads stay apart" false (Partition.congruent part l1 l2)
  | _ -> Alcotest.fail "two loads expected"

(* ------------------------------------------------------------------ *)
(* Renaming *)

let test_gvn_renames_to_shared_names () =
  let source =
    {|
fn f(y: int, z: int): int {
  var x: int = y + z;
  var a: int = y;
  var b: int = a + z;
  return x * b;
}
|}
  in
  let prog = Helpers.compile source in
  let r = Program.find_exn prog "f" in
  let stats = Gvn.run r in
  Routine.validate r;
  Alcotest.(check bool) "some class merged" true (stats.Gvn.classes_merged >= 1);
  (* the two y+z evaluations now target one name *)
  let dsts = Hashtbl.create 4 in
  Cfg.iter_blocks
    (fun blk ->
      List.iter
        (function
          | Instr.Binop { op = Op.Add; dst; _ } -> Hashtbl.replace dsts dst ()
          | _ -> ())
        blk.Block.instrs)
    r.Routine.cfg;
  Alcotest.(check int) "one add name" 1 (Hashtbl.length dsts);
  Alcotest.(check int) "semantics" 25
    (Helpers.run_int ~entry:"f" ~args:[ Value.I 2; Value.I 3 ] prog)

let test_gvn_enables_cse () =
  (* After GVN the naming discipline holds and available-expression CSE
     removes the duplicate that value numbering exposed. *)
  let source =
    {|
fn f(y: int, z: int): int {
  var x: int = y + z;
  var a: int = y;
  var b: int = a + z;
  return x * b;
}
|}
  in
  let prog = Helpers.compile source in
  let r = Program.find_exn prog "f" in
  ignore (Gvn.run r);
  ignore (Epre_opt.Naming.run r);
  let deleted = Epre_opt.Cse_avail.run r in
  Alcotest.(check bool) "duplicate deleted" true (deleted >= 1);
  Alcotest.(check int) "semantics" 25
    (Helpers.run_int ~entry:"f" ~args:[ Value.I 2; Value.I 3 ] prog)

let test_gvn_preserves_all_workloads () =
  List.iter
    (fun w ->
      let prog = Epre_workloads.Workloads.compile w in
      let p = Program.copy prog in
      List.iter (fun r -> ignore (Gvn.run r)) (Epre_ir.Program.routines p);
      Helpers.check_same_behaviour ~what:(w.Epre_workloads.Workloads.name ^ "+gvn") prog p)
    Epre_workloads.Workloads.all

let test_gvn_after_reassoc_preserves_workloads () =
  (* The pipeline order that matters: reassociation then GVN. *)
  List.iter
    (fun w ->
      let prog = Epre_workloads.Workloads.compile w in
      let p = Program.copy prog in
      List.iter
        (fun r ->
          ignore
            (Epre_reassoc.Reassociate.run
               ~config:{ Epre_reassoc.Expr_tree.reassoc_float = true; distribute = true }
               r);
          ignore (Gvn.run r))
        (Epre_ir.Program.routines p);
      Helpers.check_same_behaviour
        ~what:(w.Epre_workloads.Workloads.name ^ "+reassoc+gvn")
        prog p)
    Epre_workloads.Workloads.all

let suite =
  [
    Alcotest.test_case "partition: paper's naming example" `Quick test_paper_naming_example;
    Alcotest.test_case "partition: operators distinguish" `Quick test_different_ops_not_congruent;
    Alcotest.test_case "partition: optimistic across loop" `Quick test_optimism_through_loop;
    Alcotest.test_case "partition: constants by value" `Quick test_constants_partition_by_value;
    Alcotest.test_case "partition: commutative variant" `Quick test_commutative_config;
    Alcotest.test_case "partition: loads opaque" `Quick test_loads_never_congruent;
    Alcotest.test_case "gvn: renames congruent values" `Quick test_gvn_renames_to_shared_names;
    Alcotest.test_case "gvn: exposes CSE" `Quick test_gvn_enables_cse;
    Alcotest.test_case "gvn: all workloads preserved" `Slow test_gvn_preserves_all_workloads;
    Alcotest.test_case "gvn: after reassociation" `Slow test_gvn_after_reassoc_preserves_workloads;
  ]
