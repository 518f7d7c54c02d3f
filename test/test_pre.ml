(** Tests for [Epre_pre.Pre]: the Section 2 motivating examples, loop
    invariants, load motion, down-safety, and the never-lengthen-a-path
    guarantee. *)

open Epre_ir

let instrs_of r = Cfg.fold_blocks (fun acc b -> acc @ b.Block.instrs) [] r.Routine.cfg

let dynamic entry args prog = Helpers.dynamic_ops ~entry ~args prog

let pre_routine prog name =
  let r = Program.find_exn prog name in
  ignore (Epre_opt.Naming.run r);
  let stats = Epre_pre.Pre.run r in
  Routine.validate r;
  stats

(* ------------------------------------------------------------------ *)
(* Section 2, first example: the one-armed if *)

let partial_source =
  {|
fn f(p: int, x: int, y: int): int {
  var a: int;
  a = 1;
  if (p > 0) {
    a = x + y;
  }
  return a * (x + y);
}
|}

let test_partial_redundancy_insert_and_delete () =
  let prog = Helpers.compile partial_source in
  let before_taken = dynamic "f" [ Value.I 1; Value.I 2; Value.I 3 ] prog in
  let before_nottaken = dynamic "f" [ Value.I 0; Value.I 2; Value.I 3 ] prog in
  let stats = pre_routine prog "f" in
  Alcotest.(check bool) "inserted on the empty path" true (stats.Epre_pre.Pre.inserted >= 1);
  Alcotest.(check bool) "deleted the redundant one" true
    (stats.Epre_pre.Pre.deleted + stats.Epre_pre.Pre.cse_deleted >= 1);
  (* semantics *)
  Alcotest.(check int) "taken" 25
    (Helpers.run_int ~entry:"f" ~args:[ Value.I 1; Value.I 2; Value.I 3 ] prog);
  Alcotest.(check int) "not taken" 5
    (Helpers.run_int ~entry:"f" ~args:[ Value.I 0; Value.I 2; Value.I 3 ] prog);
  (* the paper's key property: no path gets longer *)
  let after_taken = dynamic "f" [ Value.I 1; Value.I 2; Value.I 3 ] prog in
  let after_nottaken = dynamic "f" [ Value.I 0; Value.I 2; Value.I 3 ] prog in
  Alcotest.(check bool) "taken path shortened" true (after_taken < before_taken);
  Alcotest.(check bool) "other path not lengthened" true
    (after_nottaken <= before_nottaken)

(* ------------------------------------------------------------------ *)
(* Section 2, second example: the loop invariant *)

let test_loop_invariant_hoisted () =
  let source =
    {|
fn f(n: int, x: int, y: int): int {
  var s: int;
  var i: int;
  for i = 1 to n {
    s = s + (x + y);
  }
  return s;
}
|}
  in
  let prog = Helpers.compile source in
  ignore (pre_routine prog "f");
  List.iter (fun p -> ignore (Epre_opt.Clean.run p)) (Program.routines prog);
  let r = Program.find_exn prog "f" in
  (* find the loop: the block that is its own ancestor; the x+y add must
     not be inside it. Simply check dynamic scaling: doubling n adds ~4 ops
     per extra iteration (phi copies + add + latch), crucially not the
     invariant add; compare slope against an unhoisted version. *)
  let at n = dynamic "f" [ Value.I n; Value.I 2; Value.I 3 ] (Program.create [ r ]) in
  let slope = at 20 - at 10 in
  (* loop body after PRE: s+t, i+1, cmp, cbr = 4 ops + 2 copies; without
     hoisting it would be at least one more. *)
  Alcotest.(check bool) "slope is tight" true (slope <= 10 * 7);
  Alcotest.(check int) "semantics" 50
    (Value.to_int
       (Helpers.return_value (Helpers.run ~entry:"f" ~args:[ Value.I 10; Value.I 2; Value.I 3 ] (Program.create [ r ]))))

let test_invariant_not_hoisted_when_unsafe () =
  (* A while-true-shaped loop where the expression is guarded: PRE must not
     hoist a division that would newly execute on the zero-trip path.
     Down-safety: x / y is only evaluated when the guard holds. *)
  let source =
    {|
fn f(n: int, x: int, y: int): int {
  var s: int;
  var i: int = 1;
  while (i <= n) {
    s = s + x / y;
    i = i + 1;
  }
  return s;
}
|}
  in
  let prog = Helpers.compile source in
  ignore (pre_routine prog "f");
  (* n = 0 and y = 0: the division must not execute *)
  Alcotest.(check int) "no spurious division" 0
    (Helpers.run_int ~entry:"f" ~args:[ Value.I 0; Value.I 5; Value.I 0 ] prog)

(* ------------------------------------------------------------------ *)
(* Loads *)

let test_load_hoisted_from_loop () =
  let source =
    {|
fn f(n: int, a: int[4]): int {
  var s: int;
  var i: int;
  for i = 1 to n {
    s = s + a[1];      // invariant load
  }
  return s;
}

fn main(): int {
  var a: int[4];
  a[1] = 5;
  return f(10, a);
}
|}
  in
  let prog = Helpers.compile source in
  let before = dynamic "main" [] prog in
  ignore (pre_routine prog "f");
  let after = dynamic "main" [] prog in
  Alcotest.(check int) "semantics" 50 (Helpers.run_int prog);
  (* ten loads become one *)
  Alcotest.(check bool) "load count dropped" true (after <= before - 8)

let test_load_not_moved_past_store () =
  let source =
    {|
fn f(n: int, a: int[4]): int {
  var s: int;
  var i: int;
  for i = 1 to n {
    a[1] = i;          // store kills the load
    s = s + a[1];
  }
  return s;
}

fn main(): int {
  var a: int[4];
  return f(4, a);
}
|}
  in
  let prog = Helpers.compile source in
  ignore (pre_routine prog "f");
  Alcotest.(check int) "reloads happen" 10 (Helpers.run_int prog)

let test_call_kills_loads () =
  let source =
    {|
fn bump(a: int[2]) {
  a[1] = a[1] + 1;
}

fn f(a: int[2]): int {
  var u: int = a[1];
  bump(a);
  var v: int = a[1];   // must reload after the call
  return u * 100 + v;
}

fn main(): int {
  var a: int[2];
  a[1] = 7;
  return f(a);
}
|}
  in
  let prog = Helpers.compile source in
  ignore (pre_routine prog "f");
  Alcotest.(check int) "reload after call" 708 (Helpers.run_int prog)

(* ------------------------------------------------------------------ *)
(* Composite expressions move as chains over rounds *)

let test_composite_chain_hoists () =
  let source =
    {|
fn f(n: int, x: int, y: int, z: int): int {
  var s: int;
  var i: int;
  for i = 1 to n {
    s = s + (x + y + z) * 2;   // three-deep invariant chain
  }
  return s;
}
|}
  in
  let prog = Helpers.compile source in
  let stats = pre_routine prog "f" in
  Alcotest.(check bool) "took more than one round" true (stats.Epre_pre.Pre.rounds >= 2);
  List.iter (fun r -> ignore (Epre_opt.Clean.run r)) (Program.routines prog);
  let r = Program.find_exn prog "f" in
  let at n =
    dynamic "f" [ Value.I n; Value.I 1; Value.I 2; Value.I 3 ] (Program.create [ r ])
  in
  let slope = (at 30 - at 10) / 20 in
  (* the whole chain left the loop: per-iteration cost is the accumulator
     add + induction + test + branch + copies *)
  Alcotest.(check bool) (Printf.sprintf "slope %d small" slope) true (slope <= 8);
  Alcotest.(check int) "semantics" 120
    (Value.to_int
       (Helpers.return_value
          (Helpers.run ~entry:"f"
             ~args:[ Value.I 10; Value.I 1; Value.I 2; Value.I 3 ]
             (Program.create [ r ]))))

(* ------------------------------------------------------------------ *)
(* Global property: PRE never lengthens any executed path *)

(* "A key feature of PRE is that it never lengthens an execution path"
   (Section 2) — the guarantee is about computations. Edge splitting adds
   jumps (removed by Clean when empty) and Naming adds copies (removed by
   coalescing), so the comparison counts expression evaluations: arithmetic,
   constants and loads. *)
let evaluation_ops ~entry ~args prog =
  let c = (Helpers.run ~entry ~args prog).Epre_interp.Interp.counts in
  c.Epre_interp.Counts.arith + c.Epre_interp.Counts.consts + c.Epre_interp.Counts.loads

let never_lengthens_on ~entry ~args source =
  let prog = Helpers.compile source in
  let before = evaluation_ops ~entry ~args prog in
  List.iter
    (fun r ->
      ignore (Epre_opt.Naming.run r);
      ignore (Epre_pre.Pre.run r);
      ignore (Epre_opt.Clean.run r))
    (Program.routines prog);
  let after = evaluation_ops ~entry ~args prog in
  Alcotest.(check bool)
    (Printf.sprintf "evaluations %d -> %d" before after)
    true (after <= before)

let test_never_lengthens_workloads () =
  List.iter
    (fun name ->
      let w = Option.get (Epre_workloads.Workloads.find name) in
      never_lengthens_on ~entry:"main" ~args:[] w.Epre_workloads.Workloads.source)
    [ "saxpy"; "fmin"; "zeroin"; "seval"; "urand"; "decomp"; "bilin" ]

let test_pre_is_idempotent () =
  let prog = Helpers.compile partial_source in
  let r = Program.find_exn prog "f" in
  ignore (Epre_opt.Naming.run r);
  ignore (Epre_pre.Pre.run r);
  let again = Epre_pre.Pre.run r in
  Alcotest.(check int) "second run inserts nothing" 0 again.Epre_pre.Pre.inserted;
  Alcotest.(check int) "second run deletes nothing" 0
    (again.Epre_pre.Pre.deleted + again.Epre_pre.Pre.cse_deleted)

let test_constants_hoisted_out_of_loop () =
  let source =
    {|
fn f(n: int): int {
  var s: int;
  var i: int;
  for i = 1 to n {
    s = s + 12345;     // the loadI is loop-invariant
  }
  return s;
}
|}
  in
  let prog = Helpers.compile source in
  ignore (pre_routine prog "f");
  List.iter (fun r -> ignore (Epre_opt.Clean.run r)) (Program.routines prog);
  let r = Program.find_exn prog "f" in
  (* no Const should remain in any block that is its own loop: find blocks
     on cycles via the latch heuristic (a block branching to itself after
     Clean merges the body) *)
  let consts_in_cycles = ref 0 in
  Cfg.iter_blocks
    (fun b ->
      if List.mem b.Block.id (Block.succs b) then
        List.iter
          (function Instr.Const _ -> incr consts_in_cycles | _ -> ())
          b.Block.instrs)
    r.Routine.cfg;
  Alcotest.(check int) "no constants in self-loop blocks" 0 !consts_in_cycles;
  Alcotest.(check int) "semantics" (12345 * 7)
    (Helpers.run_int ~entry:"f" ~args:[ Value.I 7 ] prog)

(* ------------------------------------------------------------------ *)
(* The shared round cap binds *)

(* A loop-invariant chain ((x + y0) + y1) + ... of depth 24 over
   parameters: each round hoists one more link, so neither engine reaches
   its fixed point within [max_rounds]. The chain is also evaluated after
   the loop, so the end of the guard block, which branches to the loop
   and past it, is a legal block-end insertion point too. *)
let test_round_cap_binds () =
  let depth = 24 in
  let ys = List.init depth (Printf.sprintf "y%d") in
  let source =
    Printf.sprintf
      {|
fn f(n: int, x: int, %s): int {
  var s: int;
  var i: int;
  for i = 1 to n {
    s = s + (x + %s);
  }
  return s + (x + %s);
}
|}
      (String.concat ", " (List.map (fun y -> y ^ ": int") ys))
      (String.concat " + " ys) (String.concat " + " ys)
  in
  let args = Value.I 3 :: Value.I 1 :: List.init depth (fun k -> Value.I k) in
  let expected = 4 * (1 + (depth * (depth - 1) / 2)) in
  List.iter
    (fun (engine, run) ->
      let prog = Helpers.compile source in
      let r = Program.find_exn prog "f" in
      ignore (Epre_opt.Naming.run r);
      let stats = run r in
      Routine.validate r;
      Alcotest.(check int) (engine ^ ": rounds") Epre_pre.Pre.max_rounds stats.Epre_pre.Pre.rounds;
      Alcotest.(check int) (engine ^ ": value") expected (Helpers.run_int ~entry:"f" ~args prog))
    [ ("edge", Epre_pre.Pre.run); ("block-end", Epre_pre.Pre.run_classic) ]

let test_no_candidates_is_fine () =
  let b = Builder.start ~name:"f" ~nparams:0 in
  Builder.ret b None;
  let r = Builder.finish b in
  let stats = Epre_pre.Pre.run r in
  Alcotest.(check int) "nothing to do" 0 stats.Epre_pre.Pre.inserted;
  ignore (instrs_of r)

let suite =
  [
    Alcotest.test_case "section 2: partial redundancy" `Quick test_partial_redundancy_insert_and_delete;
    Alcotest.test_case "section 2: loop invariant" `Quick test_loop_invariant_hoisted;
    Alcotest.test_case "down-safety: guarded division" `Quick test_invariant_not_hoisted_when_unsafe;
    Alcotest.test_case "loads: invariant load hoisted" `Quick test_load_hoisted_from_loop;
    Alcotest.test_case "loads: stores kill" `Quick test_load_not_moved_past_store;
    Alcotest.test_case "loads: calls kill" `Quick test_call_kills_loads;
    Alcotest.test_case "composite chains hoist over rounds" `Quick test_composite_chain_hoists;
    Alcotest.test_case "never lengthens workload paths" `Slow test_never_lengthens_workloads;
    Alcotest.test_case "idempotent" `Quick test_pre_is_idempotent;
    Alcotest.test_case "constants leave loops" `Quick test_constants_hoisted_out_of_loop;
    Alcotest.test_case "round cap binds on a deep chain" `Quick test_round_cap_binds;
    Alcotest.test_case "empty routine" `Quick test_no_candidates_is_fine;
  ]
