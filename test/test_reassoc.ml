(** Tests for [Epre_reassoc]: ranks, tree normalization (flattening,
    sorting, Frailey's rewrite, distribution), forward propagation
    (including partial-dead elimination and worst-case expansion), and the
    full enabling effect on PRE. *)

open Epre_ir
open Epre_reassoc

let cfg_no_distribute = { Expr_tree.reassoc_float = true; distribute = false }

let cfg_distribute = { Expr_tree.reassoc_float = true; distribute = true }

(* ------------------------------------------------------------------ *)
(* Ranks: the paper's own example (Figure 4 discussion). *)

let paper_foo_source =
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

let test_ranks_paper_example () =
  let r = Program.find_exn (Helpers.compile paper_foo_source) "foo" in
  let { Epre_ssa.Ssa.graph; _ } = Epre_ssa.Ssa.build r in
  let ranks = Rank.compute graph r in
  (* params have the entry block's rank 1 *)
  Alcotest.(check int) "param y" 1 (Rank.of_reg ranks 0);
  Alcotest.(check int) "param z" 1 (Rank.of_reg ranks 1);
  (* constants rank 0; x = y + z rank 1; loop phis rank 2 *)
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          match i with
          | Instr.Const { dst; _ } ->
            Alcotest.(check int) "constant rank" 0 (Rank.of_reg ranks dst)
          | Instr.Binop { op = Op.Add; dst; a = 0; b = 1 } ->
            Alcotest.(check int) "x = y + z is loop-invariant rank 1" 1
              (Rank.of_reg ranks dst)
          | Instr.Phi { dst; _ } ->
            Alcotest.(check bool) "phi takes its block's rank" true
              (Rank.of_reg ranks dst = Rank.of_block ranks b.Block.id)
          | _ -> ())
        b.Block.instrs)
    r.Routine.cfg

let test_ranks_nesting_depth () =
  (* Values varying in the inner loop outrank those varying only in the
     outer loop. *)
  let source =
    {|
fn f(n: int): int {
  var s: int;
  var i: int;
  var j: int;
  for i = 1 to n {
    for j = 1 to n {
      s = s + i + j;
    }
  }
  return s;
}
|}
  in
  let r = Program.find_exn (Helpers.compile source) "f" in
  let { Epre_ssa.Ssa.graph; _ } = Epre_ssa.Ssa.build r in
  let ranks = Rank.compute graph r in
  let du = Epre_analysis.Defuse.compute r in
  (* collect phi ranks; the inner loop's phis must outrank the outer's *)
  let phi_ranks = ref [] in
  for v = 0 to r.Routine.next_reg - 1 do
    match Epre_analysis.Defuse.def_instr du v with
    | Some (Instr.Phi _) -> phi_ranks := Rank.of_reg ranks v :: !phi_ranks
    | _ -> ()
  done;
  let distinct = List.sort_uniq compare !phi_ranks in
  Alcotest.(check bool) "at least two loop levels of ranks" true
    (List.length distinct >= 2)

(* ------------------------------------------------------------------ *)
(* Tree normalization *)

let leaf reg rank = Expr_tree.Leaf { reg; rank }

let test_tree_flatten_and_sort () =
  (* (a + (b + c)) with ranks a=3, b=0(via const), c=1: sorted to
     (cst, c, a). *)
  let t =
    Expr_tree.Nary
      { op = Op.Add;
        args =
          [ leaf 10 3;
            Expr_tree.Nary { op = Op.Add; args = [ Expr_tree.Cst (Value.I 5); leaf 11 1 ] } ] }
  in
  match Expr_tree.normalize cfg_no_distribute t with
  | Expr_tree.Nary { op = Op.Add; args = [ Expr_tree.Cst _; Expr_tree.Leaf { reg = 11; _ }; Expr_tree.Leaf { reg = 10; _ } ] } ->
    ()
  | t' -> Alcotest.failf "unexpected: %a" (fun ppf -> Expr_tree.pp ppf) t'

let test_tree_sub_becomes_add_neg () =
  (* x - y joins the enclosing sum: (x - y) + z flattens to one n-ary add
     with a negated leaf. *)
  let t =
    Expr_tree.Nary
      { op = Op.Add;
        args = [ Expr_tree.Bin { op = Op.Sub; a = leaf 1 2; b = leaf 2 1 }; leaf 3 0 ] }
  in
  match Expr_tree.normalize cfg_no_distribute t with
  | Expr_tree.Nary { op = Op.Add; args } ->
    Alcotest.(check int) "three operands" 3 (List.length args);
    Alcotest.(check bool) "contains a negation" true
      (List.exists (function Expr_tree.Un { op = Op.Neg; _ } -> true | _ -> false) args)
  | t' -> Alcotest.failf "unexpected: %a" (fun ppf -> Expr_tree.pp ppf) t'

let test_tree_division_not_flattened () =
  let t = Expr_tree.Bin { op = Op.Div; a = leaf 1 1; b = leaf 2 2 } in
  match Expr_tree.normalize cfg_no_distribute t with
  | Expr_tree.Bin { op = Op.Div; _ } -> ()
  | _ -> Alcotest.fail "division must stay binary"

let test_tree_float_reassoc_gated () =
  (* The tracer only builds binary nodes for FP ops when float
     reassociation is off; [normalize] must then keep the shape. *)
  let t =
    Expr_tree.Bin
      { op = Op.FAdd;
        a = leaf 1 2;
        b = Expr_tree.Bin { op = Op.FAdd; a = leaf 2 1; b = leaf 3 0 } }
  in
  (* permissive: rebuilt as one sorted n-ary sum *)
  (match Expr_tree.normalize cfg_no_distribute t with
  | Expr_tree.Nary { args = [ Expr_tree.Leaf { reg = 3; _ }; Expr_tree.Leaf { reg = 2; _ }; Expr_tree.Leaf { reg = 1; _ } ]; _ } ->
    ()
  | t' -> Alcotest.failf "flatten expected: %a" (fun ppf -> Expr_tree.pp ppf) t');
  (* strict: the nested binary structure is preserved *)
  let strict = { cfg_no_distribute with Expr_tree.reassoc_float = false } in
  match Expr_tree.normalize strict t with
  | Expr_tree.Bin { op = Op.FAdd; a = Expr_tree.Leaf { reg = 1; _ }; b = Expr_tree.Bin _ } ->
    ()
  | t' -> Alcotest.failf "no flatten expected: %a" (fun ppf -> Expr_tree.pp ppf) t'

let test_tree_distribution_paper_case () =
  (* The paper's example: a + b*((c+d)+e), ranks a=b=c=d=1, e=2
     -> a + b*(c+d) + b*e. *)
  let sum =
    Expr_tree.Nary
      { op = Op.Add;
        args =
          [ Expr_tree.Nary { op = Op.Add; args = [ leaf 3 1; leaf 4 1 ] }; leaf 5 2 ] }
  in
  let t =
    Expr_tree.Nary
      { op = Op.Add;
        args = [ leaf 1 1; Expr_tree.Nary { op = Op.Mul; args = [ leaf 2 1; sum ] } ] }
  in
  match Expr_tree.normalize cfg_distribute t with
  | Expr_tree.Nary { op = Op.Add; args } ->
    (* top-level: a, b*(c+d), b*e (in some rank order) *)
    Alcotest.(check int) "three terms" 3 (List.length args);
    let products =
      List.filter (function Expr_tree.Nary { op = Op.Mul; _ } -> true | _ -> false) args
    in
    Alcotest.(check int) "two multiplies" 2 (List.length products);
    (* one of the products contains the (c+d) subsum *)
    Alcotest.(check bool) "b*(c+d) kept together" true
      (List.exists
         (function
           | Expr_tree.Nary { op = Op.Mul; args } ->
             List.exists
               (function Expr_tree.Nary { op = Op.Add; _ } -> true | _ -> false)
               args
           | _ -> false)
         products)
  | t' -> Alcotest.failf "unexpected: %a" (fun ppf -> Expr_tree.pp ppf) t'

let test_tree_distribution_gated_by_rank () =
  (* multiplier outranks the sum: distribution must NOT happen *)
  let sum = Expr_tree.Nary { op = Op.Add; args = [ leaf 3 1; leaf 4 1 ] } in
  let t = Expr_tree.Nary { op = Op.Mul; args = [ leaf 2 5; sum ] } in
  match Expr_tree.normalize cfg_distribute t with
  | Expr_tree.Nary { op = Op.Mul; _ } -> ()
  | t' -> Alcotest.failf "should not distribute: %a" (fun ppf -> Expr_tree.pp ppf) t'

let test_tree_distribution_terminates_same_rank () =
  (* all children of the sum share one rank above the multiplier: only one
     group exists, so distribution must bail out rather than recurse. *)
  let sum = Expr_tree.Nary { op = Op.Add; args = [ leaf 3 4; leaf 4 4 ] } in
  let t = Expr_tree.Nary { op = Op.Mul; args = [ leaf 2 1; sum ] } in
  match Expr_tree.normalize cfg_distribute t with
  | Expr_tree.Nary { op = Op.Mul; _ } -> ()
  | t' -> Alcotest.failf "unexpected: %a" (fun ppf -> Expr_tree.pp ppf) t'

let test_tree_size () =
  let t =
    Expr_tree.Nary
      { op = Op.Add; args = [ leaf 1 1; Expr_tree.Un { op = Op.Neg; arg = leaf 2 1 } ] }
  in
  Alcotest.(check int) "size counts ops and leaves" 4 (Expr_tree.size t)

(* ------------------------------------------------------------------ *)
(* Forward propagation *)

let reassociate ?(config = cfg_no_distribute) prog name =
  let r = Program.find_exn prog name in
  let stats = Reassociate.run ~config r in
  Routine.validate r;
  stats

let test_forward_prop_preserves_semantics () =
  let prog = Helpers.compile paper_foo_source in
  let before = Helpers.run_int ~entry:"foo" ~args:[ Value.I 2; Value.I 3 ] prog in
  ignore (reassociate prog "foo");
  let after = Helpers.run_int ~entry:"foo" ~args:[ Value.I 2; Value.I 3 ] prog in
  Alcotest.(check int) "semantics" before after

let test_forward_prop_expands_code () =
  let prog = Helpers.compile paper_foo_source in
  let stats = reassociate prog "foo" in
  Alcotest.(check bool) "expansion >= 1" true (Reassociate.expansion stats >= 0.99)

let test_forward_prop_eliminates_partially_dead () =
  (* t = x*y is computed but used on only one branch; after propagation the
     never-used copy disappears from the not-taken path. *)
  let source =
    {|
fn f(p: int, x: int, y: int): int {
  var t: int = x * y;
  var r: int;
  if (p > 0) {
    r = t + 1;
  } else {
    r = 0;
  }
  return r;
}
|}
  in
  let prog = Helpers.compile source in
  ignore (reassociate prog "f");
  (* after cleanup, the else path must not evaluate the multiply *)
  List.iter
    (fun r ->
      ignore (Epre_opt.Dce.run r);
      ignore (Epre_opt.Coalesce.run r);
      ignore (Epre_opt.Clean.run r))
    (Program.routines prog);
  let count_mul_on_path p =
    let c =
      (Helpers.run ~entry:"f" ~args:[ Value.I p; Value.I 3; Value.I 4 ] prog)
        .Epre_interp.Interp.counts
    in
    c.Epre_interp.Counts.arith
  in
  let taken = count_mul_on_path 1 in
  let not_taken = count_mul_on_path 0 in
  Alcotest.(check bool) "dead path does not pay for the multiply" true
    (not_taken < taken);
  Alcotest.(check int) "semantics taken" 13
    (Helpers.run_int ~entry:"f" ~args:[ Value.I 1; Value.I 3; Value.I 4 ] prog);
  Alcotest.(check int) "semantics not taken" 0
    (Helpers.run_int ~entry:"f" ~args:[ Value.I 0; Value.I 3; Value.I 4 ] prog)

let test_forward_prop_worst_case_expansion () =
  (* Section 4.3: sharing chains duplicate; x2 = x1+x1, x3 = x2+x2, ...
     gives exponential growth in the chain depth. Verify growth happens and
     semantics survive on a small instance. *)
  let source =
    {|
fn f(x: int): int {
  var a: int = x + x;
  var b: int = a + a;
  var c: int = b + b;
  var d: int = c + c;
  var e: int = d + d;
  var g: int = e + e;
  return g;
}
|}
  in
  let prog = Helpers.compile source in
  let stats = reassociate prog "f" in
  (* a 6-deep doubling chain becomes a 64-leaf tree at the return *)
  Alcotest.(check bool)
    (Printf.sprintf "superlinear growth (%.2f)" (Reassociate.expansion stats))
    true
    (Reassociate.expansion stats > 1.5);
  Alcotest.(check int) "64x" 192 (Helpers.run_int ~entry:"f" ~args:[ Value.I 3 ] prog)

let test_reassoc_exposes_invariant_to_pre () =
  (* s + (i + inv) where the front end associated (s + i) first: without
     reassociation PRE cannot hoist anything; with it, inv-related work
     leaves the loop. Compare the two pipelines' dynamic counts. *)
  let source =
    {|
fn f(n: int, a: int, b: int, c: int, d: int): int {
  var s: int;
  var i: int;
  for i = 1 to n {
    s = i + a + b + c + d + s;    // left-assoc: ((((i+a)+b)+c)+d)+s
  }
  return s;
}
|}
  in
  let partial = Helpers.compile source in
  let with_reassoc = Helpers.compile source in
  let run_pre prog =
    List.iter
      (fun r ->
        ignore (Epre_opt.Naming.run r);
        ignore (Epre_pre.Pre.run r);
        ignore (Epre_opt.Constprop.run r);
        ignore (Epre_opt.Peephole.run r);
        ignore (Epre_opt.Dce.run r);
        ignore (Epre_opt.Coalesce.run r);
        ignore (Epre_opt.Clean.run r))
      (Program.routines prog)
  in
  run_pre partial;
  List.iter
    (fun r ->
      ignore (Reassociate.run ~config:cfg_no_distribute r);
      ignore (Epre_gvn.Gvn.run r))
    (Program.routines with_reassoc);
  run_pre with_reassoc;
  let args = [ Value.I 50; Value.I 7; Value.I 9; Value.I 11; Value.I 13 ] in
  let c1 = Helpers.dynamic_ops ~entry:"f" ~args partial in
  let c2 = Helpers.dynamic_ops ~entry:"f" ~args with_reassoc in
  Alcotest.(check bool)
    (Printf.sprintf "reassociation helps PRE (%d vs %d)" c1 c2)
    true (c2 < c1);
  Alcotest.(check int) "same answer"
    (Helpers.run_int ~entry:"f" ~args partial)
    (Helpers.run_int ~entry:"f" ~args with_reassoc)

let test_distribution_exposes_more () =
  (* The paper's case: a + w*(c + d + i) — distributing lets PRE hoist the
     whole a + w*(c+d) group, while w*i stays in the loop. Without
     distribution only c+d can be hoisted. *)
  let source =
    {|
fn f(n: int, a: int, w: int, c: int, d: int): int {
  var s: int;
  var i: int;
  for i = 1 to n {
    s = s + a + w * (c + d + i);
  }
  return s;
}
|}
  in
  let check config =
    let prog = Helpers.compile source in
    List.iter
      (fun r ->
        ignore (Reassociate.run ~config r);
        ignore (Epre_gvn.Gvn.run r);
        ignore (Epre_pre.Pre.run r);
        ignore (Epre_opt.Constprop.run r);
        ignore (Epre_opt.Peephole.run r);
        ignore (Epre_opt.Dce.run r);
        ignore (Epre_opt.Coalesce.run r);
        ignore (Epre_opt.Clean.run r))
      (Program.routines prog);
    let args = [ Value.I 100; Value.I 3; Value.I 5; Value.I 7; Value.I 11 ] in
    (Helpers.dynamic_ops ~entry:"f" ~args prog, Helpers.run_int ~entry:"f" ~args prog)
  in
  let without, v1 = check cfg_no_distribute in
  let with_, v2 = check cfg_distribute in
  Alcotest.(check int) "same value" v1 v2;
  Alcotest.(check bool)
    (Printf.sprintf "distribution wins (%d vs %d)" without with_)
    true (with_ < without)

let test_all_workloads_reassociate_safely () =
  (* Reassociation alone (no PRE) must preserve every workload's behaviour
     — it rearranges but never drops computations that matter. *)
  List.iter
    (fun w ->
      let prog = Epre_workloads.Workloads.compile w in
      let p = Program.copy prog in
      List.iter
        (fun r -> ignore (Reassociate.run ~config:cfg_distribute r))
        (Program.routines p);
      Helpers.check_same_behaviour ~what:(w.Epre_workloads.Workloads.name ^ "+reassoc")
        prog p)
    Epre_workloads.Workloads.all

let suite =
  [
    Alcotest.test_case "ranks: paper example" `Quick test_ranks_paper_example;
    Alcotest.test_case "ranks: nesting depth" `Quick test_ranks_nesting_depth;
    Alcotest.test_case "tree: flatten and sort by rank" `Quick test_tree_flatten_and_sort;
    Alcotest.test_case "tree: sub -> add of neg" `Quick test_tree_sub_becomes_add_neg;
    Alcotest.test_case "tree: division untouched" `Quick test_tree_division_not_flattened;
    Alcotest.test_case "tree: float reassociation gated" `Quick test_tree_float_reassoc_gated;
    Alcotest.test_case "tree: paper's partial distribution" `Quick test_tree_distribution_paper_case;
    Alcotest.test_case "tree: distribution rank gate" `Quick test_tree_distribution_gated_by_rank;
    Alcotest.test_case "tree: distribution terminates" `Quick test_tree_distribution_terminates_same_rank;
    Alcotest.test_case "tree: size" `Quick test_tree_size;
    Alcotest.test_case "forward prop: semantics" `Quick test_forward_prop_preserves_semantics;
    Alcotest.test_case "forward prop: code expansion" `Quick test_forward_prop_expands_code;
    Alcotest.test_case "forward prop: partially dead removed" `Quick test_forward_prop_eliminates_partially_dead;
    Alcotest.test_case "forward prop: worst-case growth (4.3)" `Quick test_forward_prop_worst_case_expansion;
    Alcotest.test_case "enables PRE on skewed sums" `Quick test_reassoc_exposes_invariant_to_pre;
    Alcotest.test_case "distribution exposes more" `Quick test_distribution_exposes_more;
    Alcotest.test_case "all workloads survive reassociation" `Slow test_all_workloads_reassociate_safely;
  ]
