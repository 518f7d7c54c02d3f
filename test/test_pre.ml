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

(* ------------------------------------------------------------------ *)
(* The round driver against a rebuild-everything reference              *)

(* The edge-placement driver with nothing shared between analyses: every
   round splits critical edges and builds the universe, local sets,
   orders, predecessor lists and availability afresh, then the CSE sweep
   rebuilds them all again ([Cse_avail.run]). [Pre.run] carries its
   universe and graph view across rounds and reuses the round's
   availability in the sweep; it must give the same ILOC and stats. *)
module Reference = struct
  open Epre_util
  open Epre_analysis

  let instr_of_key (key : Expr_universe.key) ~dst =
    match key with
    | Expr_universe.KConst value -> Instr.Const { dst; value }
    | Expr_universe.KUnop (op, src) -> Instr.Unop { op; dst; src }
    | Expr_universe.KBinop (op, a, b) -> Instr.Binop { op; dst; a; b }
    | Expr_universe.KLoad addr -> Instr.Load { dst; addr }

  let round (r : Routine.t) =
    ignore (Epre_ssa.Critical_edges.split_all r);
    let cfg = r.Routine.cfg in
    let fl = Expr_flow.build r in
    let uni = fl.Expr_flow.uni and width = fl.Expr_flow.width in
    let inserted = ref 0 and deleted = ref 0 in
    if width > 0 then begin
      let order = Order.compute cfg in
      let preds = Cfg.preds cfg in
      let { Expr_flow.laterin; later; later_virtual } = Expr_flow.lcm_placement fl in
      let edges =
        Cfg.fold_blocks
          (fun acc b ->
            if Order.is_reachable order b.Block.id then
              List.fold_left (fun acc s -> (b.Block.id, s) :: acc) acc (Block.succs b)
            else acc)
          [] cfg
      in
      let site (i, j) =
        let ins = later i j in
        Bitset.diff_into ~dst:ins laterin.(j);
        if List.length (Cfg.succs cfg i) = 1 then (`Bottom i, ins)
        else begin
          assert (List.length preds.(j) = 1);
          (`Top j, ins)
        end
      in
      let entry = Cfg.entry cfg in
      let entry_ins = Bitset.copy later_virtual in
      Bitset.diff_into ~dst:entry_ins laterin.(entry);
      List.iter
        (fun (where, set) ->
          let instrs =
            List.map
              (fun idx ->
                let e = (Expr_universe.exprs uni).(idx) in
                instr_of_key e.Expr_universe.key ~dst:e.Expr_universe.name)
              (Bitset.elements set)
          in
          inserted := !inserted + List.length instrs;
          match where with
          | `Top id ->
            let b = Cfg.block cfg id in
            b.Block.instrs <- instrs @ b.Block.instrs
          | `Bottom id ->
            let b = Cfg.block cfg id in
            b.Block.instrs <- b.Block.instrs @ instrs)
        (List.map site edges @ [ (`Top entry, entry_ins) ]);
      Cfg.iter_blocks
        (fun b ->
          let id = b.Block.id in
          if Order.is_reachable order id then begin
            let del = Bitset.copy fl.Expr_flow.local.Expr_universe.antloc.(id) in
            Bitset.diff_into ~dst:del laterin.(id);
            let killed = Bitset.create width in
            b.Block.instrs <-
              List.filter
                (fun i ->
                  let drop =
                    match Expr_universe.evaluated uni i with
                    | Some e ->
                      Bitset.mem del e.Expr_universe.index
                      && not (Bitset.mem killed e.Expr_universe.index)
                    | None -> false
                  in
                  if drop then incr deleted else Expr_universe.iter_kills uni i (Bitset.add killed);
                  not drop)
                b.Block.instrs
          end)
        cfg
    end;
    (!inserted, !deleted, Epre_opt.Cse_avail.run r)

  let run (r : Routine.t) =
    let stats = { Epre_pre.Pre.inserted = 0; deleted = 0; cse_deleted = 0; rounds = 0 } in
    let rec go () =
      if stats.rounds < Epre_pre.Pre.max_rounds then begin
        let ins, del, cse = round r in
        stats.inserted <- stats.inserted + ins;
        stats.deleted <- stats.deleted + del;
        stats.cse_deleted <- stats.cse_deleted + cse;
        stats.rounds <- stats.rounds + 1;
        if ins + del + cse > 0 then go ()
      end
    in
    go ();
    stats
end

(* Universes compared by their numbered (name, key) lists; [compare], not
   [=], so a [KConst nan] key matches itself. *)
let universe_list u =
  Array.to_list
    (Array.map
       (fun e -> Epre_analysis.Expr_universe.(e.index, e.name, e.key))
       (Epre_analysis.Expr_universe.exprs u))

(* [Pre.run] against the reference on a copy of [r] each; also checks
   that the universe [Pre.run] carried out of its last round is the one a
   rebuild gives. *)
let check_against_reference what (r : Routine.t) =
  let mine = Routine.copy r and theirs = Routine.copy r in
  let stats, uni = Epre_pre.Pre.run_carrying mine in
  let want = Reference.run theirs in
  let show (s : Epre_pre.Pre.stats) =
    Printf.sprintf "%d/%d/%d/%d" s.inserted s.deleted s.cse_deleted s.rounds
  in
  Alcotest.(check string) (what ^ ": ILOC") (Ir_text.routine_to_string theirs)
    (Ir_text.routine_to_string mine);
  Alcotest.(check string) (what ^ ": stats") (show want) (show stats);
  if compare (universe_list uni) (universe_list (Epre_analysis.Expr_universe.build mine)) <> 0
  then Alcotest.failf "%s: the carried universe differs from a rebuild" what

let test_reference_kernels_after_naming () =
  List.iter
    (fun w ->
      List.iter
        (fun r ->
          ignore (Epre_opt.Naming.run r);
          check_against_reference (w.Epre_workloads.Workloads.name ^ "/" ^ r.Routine.name) r)
        (Program.routines (Epre_workloads.Workloads.compile w)))
    Epre_workloads.Workloads.all

(* What each PRE level hands its late cleanup [pre]: the level's passes
   up to, not including, its last "pre". *)
let test_reference_late_pre_inputs () =
  let module Pipeline = Epre.Pipeline in
  List.iter
    (fun level ->
      let passes = Pipeline.level_passes ~level in
      let late =
        List.fold_left
          (fun (k, last) p ->
            (k + 1, if p.Epre_harness.Harness.pass_name = "pre" then k else last))
          (0, -1) passes
        |> snd
      in
      List.iter
        (fun w ->
          List.iter
            (fun r ->
              List.iteri (fun k p -> if k < late then p.Epre_harness.Harness.run r) passes;
              check_against_reference
                (Printf.sprintf "%s %s/%s" (Pipeline.level_to_string level)
                   w.Epre_workloads.Workloads.name r.Routine.name)
                r)
            (Program.routines (Epre_workloads.Workloads.compile w)))
        Epre_workloads.Workloads.all)
    [ Pipeline.Partial; Pipeline.Reassociation; Pipeline.Distribution ]

let test_reference_fuzz_programs () =
  for seed = 1 to 200 do
    let prog = Epre_frontend.Frontend.compile_string (Epre_fuzz.Gen.source seed) in
    List.iter
      (fun r ->
        ignore (Epre_opt.Naming.run r);
        check_against_reference (Printf.sprintf "seed %d/%s" seed r.Routine.name) r)
      (Program.routines prog)
  done

(* A NaN constant evaluated in a loop entered from both arms of a
   diamond. Round 1 hoists it onto both entry edges, so its name gets a
   second [const nan] definition; [KConst nan] is not [=] to itself, so a
   rebuilt universe drops the name, and the round must hand on a rebuilt
   universe instead of the one it started with. Round 2 hoists [r4],
   whose operand [r3] is now defined outside the loop; round 3 confirms. *)
let nan_loop =
  {|
routine f(r0, r1) entry B0 regs 5 {
B0:
  cbr r0, B1, B2
B1:
  jump B3
B2:
  jump B3
B3:
  r3 = const nan
  r4 = fadd r3, r1
  cbr r0, B3, B4
B4:
  return r4
}
|}

let test_nan_insertion_rebuilds_universe () =
  let r = Program.find_exn (Ir_text.parse_program nan_loop) "f" in
  let probe = Routine.copy r in
  let stats = Epre_pre.Pre.run probe in
  Alcotest.(check int) "rounds" 3 stats.Epre_pre.Pre.rounds;
  Alcotest.(check int) "two nan and two fadd insertions" 4 stats.Epre_pre.Pre.inserted;
  Alcotest.(check bool) "the nan name left the universe" true
    (Epre_analysis.Expr_universe.expr_of_name (Epre_analysis.Expr_universe.build probe) 3 = None);
  check_against_reference "nan loop" r

(* An entry block with a predecessor. Lazy code motion assumes an entry
   that nothing jumps back to: on this routine the virtual edge into B0
   would place [fadd] where the back edge enters too, so its only
   definition in B1 was deleted. Both engines now start from a fresh
   entry that jumps to B0. *)
let entry_with_pred =
  {|
routine main(r0, r1) entry B0 regs 4 {
B0:
  jump B1
B1:
  r3 = fadd r1, r1
  cbr r0, B0, B2
B2:
  return r3
}
|}

let test_entry_with_predecessor () =
  let prog = Ir_text.parse_program entry_with_pred in
  List.iter
    (fun (name, engine) ->
      let p = Program.copy prog in
      ignore (engine (Program.find_exn p "main"));
      (match Epre_verify.Verify.errors (Epre_verify.Verify.check_program p) with
      | [] -> ()
      | errs -> Alcotest.failf "%s: %s" name (Epre_verify.Verify.render errs));
      Helpers.check_same_behaviour ~what:name ~args:[ Value.I 0; Value.F 1.5 ] prog p)
    [ ("Pre.run", Epre_pre.Pre.run); ("Pre.run_classic", Epre_pre.Pre.run_classic) ]

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
    Alcotest.test_case "reference driver: kernels after naming" `Slow
      test_reference_kernels_after_naming;
    Alcotest.test_case "reference driver: late pre inputs" `Slow test_reference_late_pre_inputs;
    Alcotest.test_case "reference driver: generated programs" `Slow test_reference_fuzz_programs;
    Alcotest.test_case "nan insertion rebuilds the universe" `Quick
      test_nan_insertion_rebuilds_universe;
    Alcotest.test_case "entry with a predecessor" `Quick test_entry_with_predecessor;
  ]
