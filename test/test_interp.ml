(** Tests for [Epre_interp]: machine semantics, error detection, dynamic
    operation counting. *)

open Epre_ir

let simple_routine build =
  let b = Builder.start ~name:"f" ~nparams:0 in
  let ret = build b in
  Builder.ret b (Some ret);
  Program.create [ Builder.finish b ]

let test_arith () =
  let prog =
    simple_routine (fun b ->
        let x = Builder.int b 10 in
        let y = Builder.int b 3 in
        let q = Builder.binop b Op.Div x y in
        let r = Builder.binop b Op.Rem x y in
        let t = Builder.binop b Op.Mul q (Builder.int b 10) in
        Builder.binop b Op.Add t r)
  in
  Alcotest.(check int) "10/3*10 + 10%3" 31 (Helpers.run_int ~entry:"f" prog)

let test_float_conversions () =
  let prog =
    simple_routine (fun b ->
        let x = Builder.float b 2.25 in
        let i = Builder.unop b Op.F2I x in
        let f = Builder.unop b Op.I2F i in
        Builder.unop b Op.F2I (Builder.binop b Op.FMul f (Builder.float b 3.0)))
  in
  Alcotest.(check int) "truncate" 6 (Helpers.run_int ~entry:"f" prog)

let test_division_by_zero_reported () =
  let prog =
    simple_routine (fun b ->
        let x = Builder.int b 1 in
        let z = Builder.int b 0 in
        Builder.binop b Op.Div x z)
  in
  Alcotest.check_raises "div by zero" (Epre_interp.Interp.Runtime_error "f: division by zero")
    (fun () -> ignore (Epre_interp.Interp.run prog ~entry:"f" ~args:[]))

let test_undefined_register_read () =
  let b = Builder.start ~name:"f" ~nparams:0 in
  let x = Builder.fresh_reg b in
  let y = Builder.copy b x in
  Builder.ret b (Some y);
  (* bypass the builder validation on purpose: register is in range but
     never written *)
  let r = b.Builder.routine in
  let prog = Program.create [ r ] in
  Alcotest.check_raises "undefined read"
    (Epre_interp.Interp.Runtime_error "f: read of undefined register r0") (fun () ->
      ignore (Epre_interp.Interp.run prog ~entry:"f" ~args:[]))

let test_out_of_bounds_store () =
  let b = Builder.start ~name:"f" ~nparams:0 in
  let base = Builder.alloca b 4 in
  let off = Builder.int b 10 in
  let addr = Builder.binop b Op.Add base off in
  Builder.store b ~addr ~src:off;
  Builder.ret b None;
  let prog = Program.create [ Builder.finish b ] in
  Alcotest.check_raises "oob"
    (Epre_interp.Interp.Runtime_error "store to unallocated address 10") (fun () ->
      ignore (Epre_interp.Interp.run prog ~entry:"f" ~args:[]))

let test_fuel_exhaustion () =
  let b = Builder.start ~name:"f" ~nparams:0 in
  let l = Builder.new_block b in
  Builder.jump b l;
  Builder.switch b l;
  Builder.jump b l;
  let prog = Program.create [ Builder.finish b ] in
  Alcotest.check_raises "fuel" Epre_interp.Interp.Out_of_fuel (fun () ->
      ignore (Epre_interp.Interp.run ~fuel:1000 prog ~entry:"f" ~args:[]))

let test_alloca_stack_discipline () =
  (* Each call's allocas are released on return: a loop that calls a
     routine with a local array must not leak memory (observable through
     the base addresses staying put). *)
  let source =
    {|
fn g(): int {
  var a: int[100];
  a[1] = 7;
  return a[1];
}

fn f(): int {
  var s: int;
  var i: int;
  for i = 1 to 50 {
    s = s + g();
  }
  return s;
}
|}
  in
  Alcotest.(check int) "sum" 350 (Helpers.run_int ~entry:"f" (Helpers.compile source))

let test_alloca_init_value () =
  let b = Builder.start ~name:"f" ~nparams:0 in
  let base = Builder.alloca ~init:(Value.F 0.0) b 2 in
  let v = Builder.load b base in
  let one = Builder.float b 1.0 in
  Builder.ret b (Some (Builder.binop b Op.FAdd v one));
  let prog = Program.create [ Builder.finish b ] in
  Alcotest.(check (float 1e-9)) "float-filled" 1.0 (Helpers.run_float ~entry:"f" prog)

let test_counts_categories () =
  let source =
    {|
fn f(): int {
  var a: int[2];
  a[1] = 5;        // address arith + store
  var x: int = a[1];
  emit(x);
  return x;
}
|}
  in
  let prog = Helpers.compile source in
  let result = Epre_interp.Interp.run prog ~entry:"f" ~args:[] in
  let c = result.Epre_interp.Interp.counts in
  Alcotest.(check int) "stores" 1 c.Epre_interp.Counts.stores;
  Alcotest.(check int) "loads" 1 c.Epre_interp.Counts.loads;
  Alcotest.(check int) "allocas" 1 c.Epre_interp.Counts.allocas;
  Alcotest.(check int) "calls (emit)" 1 c.Epre_interp.Counts.calls;
  Alcotest.(check int) "branches (one return)" 1 c.Epre_interp.Counts.branches;
  Alcotest.(check bool) "total adds up" true
    (Epre_interp.Counts.total c
    = c.Epre_interp.Counts.arith + c.Epre_interp.Counts.consts
      + c.Epre_interp.Counts.copies + c.Epre_interp.Counts.loads
      + c.Epre_interp.Counts.stores + c.Epre_interp.Counts.branches
      + c.Epre_interp.Counts.calls + c.Epre_interp.Counts.allocas)

let test_emit_trace_order () =
  let source =
    "fn f(): int { var i: int; for i = 1 to 3 { emit(i * 10); } return 0; }"
  in
  let result = Epre_interp.Interp.run (Helpers.compile source) ~entry:"f" ~args:[] in
  Alcotest.(check (list int)) "trace" [ 10; 20; 30 ]
    (List.map Value.to_int result.Epre_interp.Interp.trace)

let test_phi_parallel_evaluation () =
  (* Two phis whose arguments reference each other's destinations must be
     read before either is written (swap in SSA form). *)
  let b = Builder.start ~name:"f" ~nparams:1 in
  let loop = Builder.new_block b in
  let exit = Builder.new_block b in
  let one = Builder.int b 1 in
  let two = Builder.int b 2 in
  Builder.jump b loop;
  Builder.switch b loop;
  let x = Builder.fresh_reg b in
  let y = Builder.fresh_reg b in
  Builder.emit b (Instr.Phi { dst = x; args = [ (0, one); (loop, y) ] });
  Builder.emit b (Instr.Phi { dst = y; args = [ (0, two); (loop, x) ] });
  Builder.cbr b ~cond:0 ~ifso:loop ~ifnot:exit;
  Builder.switch b exit;
  let ten = Builder.int b 10 in
  let t = Builder.binop b Op.Mul x ten in
  Builder.ret b (Some (Builder.binop b Op.Add t y));
  let r = Builder.finish b in
  r.Routine.in_ssa <- true;
  let prog = Program.create [ r ] in
  (* one iteration: after the back edge the phis swap to x=2, y=1 *)
  let run cond = Helpers.run_int ~entry:"f" ~args:[ Value.I cond ] prog in
  ignore (run 0);
  (* cond=0: loop not re-entered, x=1 y=2 -> 12. The cond register is the
     parameter; with 1 it loops forever, so only test the 0 case plus a
     self-check of the swap through the interp's phi logic below. *)
  Alcotest.(check int) "no swap" 12 (run 0)

let test_missing_routine () =
  let prog = Helpers.compile "fn f(): int { return 0; }" in
  Alcotest.check_raises "unknown entry"
    (Epre_interp.Interp.Runtime_error "no routine named nope") (fun () ->
      ignore (Epre_interp.Interp.run prog ~entry:"nope" ~args:[]))

let test_wrong_arity_call () =
  let prog = Helpers.compile "fn f(x: int): int { return x; }" in
  Alcotest.check_raises "arity"
    (Epre_interp.Interp.Runtime_error "f: expected 1 arguments, got 0") (fun () ->
      ignore (Epre_interp.Interp.run prog ~entry:"f" ~args:[]))

(* --- exactness table ------------------------------------------------ *)

(* Routines written block by block, ids 0.. in list order, entry 0, so a
   case can build IR no builder or pass would: dangling jumps, misplaced
   phis, registers past [next_reg]. *)
let routine ?(params = []) ~next_reg name blocks =
  let cfg = Cfg.create () in
  List.iter (fun (instrs, term) -> ignore (Cfg.add_block ~instrs ~term cfg)) blocks;
  Routine.create ~name ~params ~cfg ~next_reg

let ci dst n = Instr.Const { dst; value = Value.I n }
let cf dst x = Instr.Const { dst; value = Value.F x }
let bin op dst a b = Instr.Binop { op; dst; a; b }
let phi dst args = Instr.Phi { dst; args }
let call ?dst callee args = Instr.Call { dst; callee; args }
let ret r = Instr.Ret (Some r)

(* What a run of [f] does, as one comparable line: the value it returns or
   the exception and text it raises. *)
let outcome ?fuel ?(args = []) routines =
  match Epre_interp.Interp.run ?fuel (Program.create routines) ~entry:"f" ~args with
  | r ->
    "returns "
    ^ Option.fold ~none:"-" ~some:Value.to_string r.Epre_interp.Interp.return_value
  | exception Epre_interp.Interp.Runtime_error m -> "Runtime_error " ^ m
  | exception Invalid_argument m -> "Invalid_argument " ^ m
  | exception Value.Type_error m -> "Type_error " ^ m
  | exception Epre_interp.Interp.Out_of_fuel -> "Out_of_fuel"

(* Every exactness case of the interpreter — error texts (rollback reasons
   quote them), which of two errors fires first, and where fuel runs
   out — as (case, outcome, expected). *)
let exactness_table () =
  let f ?params ~next_reg blocks = routine ?params ~next_reg "f" blocks in
  let g_void = routine "g" ~params:[ 0 ] ~next_reg:1 [ ([], Instr.Ret None) ] in
  let g_id = routine "g" ~params:[ 0 ] ~next_reg:1 [ ([], ret 0) ] in
  (* B0 -> B1 with two phis in B1, built from [phis]. *)
  let into_phis ?fuel phis =
    outcome ?fuel
      [ f ~next_reg:6 [ ([ ci 0 7 ], Instr.Jump 1); (phis, ret 1) ] ]
  in
  let removed =
    let r =
      f ~params:[ 0 ] ~next_reg:1
        [ ([], Instr.Cbr { cond = 0; ifso = 1; ifnot = 2 }); ([], ret 0); ([], ret 0) ]
    in
    Cfg.remove_block r.Routine.cfg 2;
    r
  in
  let arith op a b =
    outcome [ f ~next_reg:3 [ ([ a 0; b 1; bin op 2 0 1 ], ret 2) ] ]
  in
  [
    ( "jump to a block past the table",
      outcome [ f ~next_reg:0 [ ([], Instr.Jump 3) ] ],
      "Invalid_argument Cfg.block: no block 3" );
    ( "jump to a negative block",
      outcome [ f ~next_reg:0 [ ([], Instr.Jump (-1)) ] ],
      "Invalid_argument Cfg.block: no block -1" );
    ( "removed block, edge not taken",
      outcome ~args:[ Value.I 1 ] [ removed ], "returns 1" );
    ( "removed block, edge taken",
      outcome ~args:[ Value.I 0 ] [ removed ],
      "Invalid_argument Cfg.block: no block 2" );
    ( "a phi after a non-phi still moves on entry",
      outcome
        [ f ~next_reg:3
            [ ([ ci 0 5 ], Instr.Jump 1);
              ([ Instr.Copy { dst = 2; src = 1 }; phi 1 [ (0, 0) ] ], ret 2) ] ],
      "returns 5" );
    ( "binop reads b before a",
      outcome [ f ~next_reg:3 [ ([ bin Op.Add 2 0 1 ], ret 2) ] ],
      "Runtime_error f: read of undefined register r1" );
    ( "binop: undefined b before an out-of-range a",
      outcome [ f ~next_reg:3 [ ([ bin Op.Add 2 9 1 ], ret 2) ] ],
      "Runtime_error f: read of undefined register r1" );
    ( "store reads src before addr",
      outcome [ f ~next_reg:2 [ ([ Instr.Store { addr = 0; src = 1 } ], Instr.Ret None) ] ],
      "Runtime_error f: read of undefined register r1" );
    ( "store: float address",
      outcome
        [ f ~next_reg:2 [ ([ cf 0 1.0; ci 1 3; Instr.Store { addr = 0; src = 1 } ],
                           Instr.Ret None) ] ],
      "Type_error expected int value" );
    ( "load: float address",
      outcome [ f ~next_reg:2 [ ([ cf 0 1.0; Instr.Load { dst = 1; addr = 0 } ], ret 1) ] ],
      "Type_error expected int value" );
    ( "load from unallocated memory",
      outcome [ f ~next_reg:2 [ ([ ci 0 0; Instr.Load { dst = 1; addr = 0 } ], ret 1) ] ],
      "Runtime_error load from unallocated address 0" );
    ( "alloca of negative size",
      outcome
        [ f ~next_reg:1
            [ ([ Instr.Alloca { dst = 0; words = -1; init = Value.I 0 } ], ret 0) ] ],
      "Runtime_error alloca of negative size -1" );
    ( "cbr on a float",
      outcome
        [ f ~next_reg:1 [ ([ cf 0 1.0 ], Instr.Cbr { cond = 0; ifso = 1; ifnot = 1 });
                          ([], ret 0) ] ],
      "Type_error expected int value" );
    ( "call arguments read left to right",
      outcome [ g_id; f ~next_reg:3 [ ([ call ~dst:2 "g" [ 0; 1 ] ], ret 2) ] ],
      "Runtime_error f: read of undefined register r0" );
    ( "emit arguments read before its arity check",
      outcome [ f ~next_reg:3 [ ([ ci 0 1; call "emit" [ 0; 1 ] ], Instr.Ret None) ] ],
      "Runtime_error f: read of undefined register r1" );
    ( "emit with two arguments",
      outcome [ f ~next_reg:2 [ ([ ci 0 1; call "emit" [ 0; 0 ] ], Instr.Ret None) ] ],
      "Runtime_error emit expects one argument" );
    ( "emit with no argument",
      outcome [ f ~next_reg:1 [ ([ call "emit" [] ], Instr.Ret None) ] ],
      "Runtime_error emit expects one argument" );
    ( "emit returns its argument",
      outcome [ f ~next_reg:2 [ ([ ci 0 4; call ~dst:1 "emit" [ 0 ] ], ret 1) ] ],
      "returns 4" );
    ( "unknown callee",
      outcome [ f ~next_reg:1 [ ([ ci 0 1; call "nope" [ 0 ] ], Instr.Ret None) ] ],
      "Runtime_error call to unknown routine nope" );
    ( "unknown callee: arguments read first",
      outcome [ f ~next_reg:1 [ ([ call "nope" [ 0 ] ], Instr.Ret None) ] ],
      "Runtime_error f: read of undefined register r0" );
    ( "callee arity",
      outcome [ g_id; f ~next_reg:1 [ ([ ci 0 1; call "g" [ 0; 0 ] ], Instr.Ret None) ] ],
      "Runtime_error g: expected 1 arguments, got 2" );
    ( "callee returns nothing",
      outcome [ g_void; f ~next_reg:2 [ ([ ci 0 1; call ~dst:1 "g" [ 0 ] ], ret 1) ] ],
      "Runtime_error f: call to g expected a return value" );
    ( "the first routine of a name is called",
      outcome
        [ routine "g" ~next_reg:1 [ ([ ci 0 1 ], ret 0) ];
          routine "g" ~next_reg:1 [ ([ ci 0 2 ], ret 0) ];
          f ~next_reg:1 [ ([ call ~dst:0 "g" [] ], ret 0) ] ],
      "returns 1" );
    ( "the first routine of a name is the entry",
      outcome
        [ f ~next_reg:1 [ ([ ci 0 1 ], ret 0) ]; f ~next_reg:1 [ ([ ci 0 2 ], ret 0) ] ],
      "returns 1" );
    ( "phi with no entry for the arriving edge",
      into_phis [ phi 1 [ (5, 0) ] ],
      "Runtime_error f: phi in B1 has no entry for predecessor B0" );
    ( "phis in order: undefined read before a later missing entry",
      into_phis [ phi 1 [ (0, 5) ]; phi 2 [ (5, 0) ] ],
      "Runtime_error f: read of undefined register r5" );
    ( "phis in order: missing entry before a later undefined read",
      into_phis [ phi 2 [ (5, 0) ]; phi 1 [ (0, 5) ] ],
      "Runtime_error f: phi in B1 has no entry for predecessor B0" );
    ( "phis read the first entry for a predecessor",
      into_phis [ phi 1 [ (0, 0); (0, 5) ] ],
      "returns 7" );
    ( "phi in the entry block",
      outcome [ f ~next_reg:2 [ ([ phi 1 [ (0, 0) ] ], ret 1) ] ],
      "Runtime_error f: phi in B0 has no entry for predecessor B-1" );
    ( "div by int zero before the float type error",
      arith Op.Div (fun d -> cf d 1.0) (fun d -> ci d 0),
      "Runtime_error f: division by zero" );
    ( "rem by int zero before the float type error",
      arith Op.Rem (fun d -> cf d 1.0) (fun d -> ci d 0),
      "Runtime_error f: division by zero" );
    ( "div by a float zero is a type error",
      arith Op.Div (fun d -> ci d 1) (fun d -> cf d 0.0),
      "Runtime_error f: expected int value in div" );
    ( "div of a float by an int",
      arith Op.Div (fun d -> cf d 1.0) (fun d -> ci d 2),
      "Runtime_error f: expected int value in div" );
    ( "int op on a float",
      arith Op.Add (fun d -> ci d 1) (fun d -> cf d 1.0),
      "Runtime_error f: expected int value in add" );
    ( "float op on an int",
      arith Op.FAdd (fun d -> ci d 1) (fun d -> cf d 1.0),
      "Runtime_error f: expected float value in fadd" );
    ( "unop on the wrong type",
      outcome [ f ~next_reg:2 [ ([ cf 0 1.0; Instr.Unop { op = Op.Neg; dst = 1; src = 0 } ],
                                 ret 1) ] ],
      "Runtime_error f: expected int value in neg" );
    ( "read of a register past next_reg",
      outcome [ f ~next_reg:2 [ ([ Instr.Copy { dst = 0; src = 5 } ], ret 0) ] ],
      "Invalid_argument index out of bounds" );
    ( "write of a register past next_reg",
      outcome [ f ~next_reg:2 [ ([ ci 5 1 ], ret 0) ] ],
      "Invalid_argument index out of bounds" );
    ( "a parameter past next_reg",
      outcome ~args:[ Value.I 1 ] [ f ~params:[ 3 ] ~next_reg:1 [ ([], Instr.Ret None) ] ],
      "Invalid_argument index out of bounds" );
    ( "next_reg 0 still has a register 0",
      outcome [ f ~next_reg:0 [ ([], ret 0) ] ],
      "Runtime_error f: read of undefined register r0" );
    ( "every call starts with undefined registers",
      outcome
        [ routine "g" ~params:[ 0 ] ~next_reg:2
            [ ([], Instr.Cbr { cond = 0; ifso = 1; ifnot = 2 }); ([ ci 1 5 ], Instr.Jump 2);
              ([], ret 1) ];
          f ~next_reg:3
            [ ([ ci 0 1; call ~dst:1 "g" [ 0 ]; ci 0 0; call ~dst:2 "g" [ 0 ] ], ret 2) ] ],
      "Runtime_error g: read of undefined register r1" );
    ( "return of an undefined register",
      outcome [ f ~next_reg:1 [ ([], ret 0) ] ],
      "Runtime_error f: read of undefined register r0" );
    (* Fuel: one unit per phi move, instruction and terminator, taken
       before the operation runs; exhaustion is fuel below 0. *)
    ( "fuel: exactly enough",
      outcome ~fuel:4 [ f ~next_reg:3 [ ([ ci 0 1; ci 1 2; bin Op.Add 2 0 1 ], ret 2) ] ],
      "returns 3" );
    ( "fuel: one short",
      outcome ~fuel:3 [ f ~next_reg:3 [ ([ ci 0 1; ci 1 2; bin Op.Add 2 0 1 ], ret 2) ] ],
      "Out_of_fuel" );
    ( "fuel: burned before an instruction's error",
      outcome ~fuel:0 [ f ~next_reg:2 [ ([ Instr.Copy { dst = 0; src = 1 } ], ret 0) ] ],
      "Out_of_fuel" );
    ( "fuel: burned before a return's read",
      outcome ~fuel:0 [ f ~next_reg:1 [ ([], ret 0) ] ],
      "Out_of_fuel" );
    ( "fuel: burned before a jump to a missing block",
      outcome ~fuel:0 [ f ~next_reg:0 [ ([], Instr.Jump 3) ] ],
      "Out_of_fuel" );
    ( "fuel: phi reads precede phi burns",
      into_phis ~fuel:2 [ phi 1 [ (0, 0) ]; phi 2 [ (0, 5) ] ],
      "Runtime_error f: read of undefined register r5" );
    ( "fuel: one per phi move",
      into_phis ~fuel:5 [ phi 1 [ (0, 0) ]; phi 2 [ (0, 0) ] ],
      "returns 7" );
    ( "fuel: one short of the phi moves",
      into_phis ~fuel:4 [ phi 1 [ (0, 0) ]; phi 2 [ (0, 0) ] ],
      "Out_of_fuel" );
    ( "fuel: a call and its callee",
      outcome ~fuel:4 [ g_id; f ~next_reg:2 [ ([ ci 0 1; call ~dst:1 "g" [ 0 ] ], ret 1) ] ],
      "returns 1" );
    ( "fuel: a call and its callee, one short",
      outcome ~fuel:3 [ g_id; f ~next_reg:2 [ ([ ci 0 1; call ~dst:1 "g" [ 0 ] ], ret 1) ] ],
      "Out_of_fuel" );
  ]

let test_exactness_table () =
  List.iter
    (fun (case, got, want) -> Alcotest.(check string) case want got)
    (exactness_table ())

(* --- fuel exactness --------------------------------------------------- *)

(* A run that succeeds burned exactly one unit per operation and phi move:
   that much fuel reproduces it, one unit less runs out. *)
let fuel_is_exact prog =
  let run fuel = Epre_interp.Interp.run ?fuel prog ~entry:"main" ~args:[] in
  let r = run None in
  let c = r.Epre_interp.Interp.counts in
  let burned = Epre_interp.Counts.total c + c.Epre_interp.Counts.phis in
  let again = run (Some burned) in
  Option.equal Value.equal r.Epre_interp.Interp.return_value
    again.Epre_interp.Interp.return_value
  && List.equal Value.equal r.Epre_interp.Interp.trace again.Epre_interp.Interp.trace
  && again.Epre_interp.Interp.counts = c
  &&
  match run (Some (burned - 1)) with
  | _ -> false
  | exception Epre_interp.Interp.Out_of_fuel -> true

let at_every_level prog =
  prog
  :: List.map (fun level -> fst (Epre.Pipeline.optimized_copy ~level prog))
       Epre.Pipeline.all_levels

let test_fuel_exact_on_kernels () =
  List.iter
    (fun w ->
      List.iteri
        (fun i prog ->
          if not (fuel_is_exact prog) then
            Alcotest.failf "%s (variant %d): fuel is not exact" w.Epre_workloads.Workloads.name i)
        (at_every_level (Epre_workloads.Workloads.compile w)))
    Epre_workloads.Workloads.all

let fuel_exact_on_generated =
  Helpers.qcheck_case ~count:200 "interp" "fuel is exact on generated programs"
    (QCheck2.Gen.int_range 0 1_000_000_000)
    (fun seed ->
      let prog = Epre_frontend.Frontend.compile_string (Epre_fuzz.Gen.source seed) in
      List.for_all fuel_is_exact (at_every_level prog))

(* --- operator semantics ----------------------------------------------- *)

(* The interpreter's typed fast paths against the evaluator the optimizer
   folds with: one instruction over operands fed in as parameters and as
   constants must give [Op.eval_binop]'s value (bit for bit) or its error,
   in the interpreter's wording. *)
let same_value a b = Value.equal a b && Value.to_string a = Value.to_string b

let expected_outcome name eval =
  match eval () with
  | v -> Ok v
  | exception Value.Type_error m -> Error (Printf.sprintf "f: %s in %s" m name)
  | exception Op.Division_by_zero -> Error "f: division by zero"

let matches_evaluator ~name ~eval ~operands ~instr =
  let params = List.mapi (fun i _ -> i) operands in
  let n = List.length operands in
  let consts = List.mapi (fun i v -> Instr.Const { dst = i; value = v }) operands in
  let run r args =
    match Epre_interp.Interp.run (Program.create [ r ]) ~entry:"f" ~args with
    | { Epre_interp.Interp.return_value = Some v; _ } -> Ok v
    | _ -> Error "no return value"
    | exception Epre_interp.Interp.Runtime_error m -> Error m
  in
  let via_params = routine "f" ~params ~next_reg:(n + 1) [ ([ instr n ], ret n) ] in
  let via_consts = routine "f" ~next_reg:(n + 1) [ (consts @ [ instr n ], ret n) ] in
  let want = expected_outcome name eval in
  List.for_all
    (fun got ->
      match (want, got) with
      | Ok a, Ok b -> same_value a b
      | Error a, Error b -> a = b
      | _ -> false)
    [ run via_params operands; run via_consts [] ]

let special_operands =
  [ Value.I 0; I 1; I (-1); I min_int; I max_int; I 12345;
    F 0.0; F (-0.0); F Float.infinity; F Float.neg_infinity; F Float.nan; F 2.5 ]

let binop_agrees op a b =
  matches_evaluator ~name:(Op.binop_name op)
    ~eval:(fun () -> Op.eval_binop op a b)
    ~operands:[ a; b ]
    ~instr:(fun dst -> bin op dst 0 1)

let unop_agrees op a =
  matches_evaluator ~name:(Op.unop_name op)
    ~eval:(fun () -> Op.eval_unop op a)
    ~operands:[ a ]
    ~instr:(fun dst -> Instr.Unop { op; dst; src = 0 })

let test_ops_on_special_operands () =
  List.iter
    (fun op ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if not (binop_agrees op a b) then
                Alcotest.failf "%s %s %s" (Op.binop_name op) (Value.to_string a)
                  (Value.to_string b))
            special_operands)
        special_operands)
    Op.all_binops;
  List.iter
    (fun op ->
      List.iter
        (fun a ->
          if not (unop_agrees op a) then
            Alcotest.failf "%s %s" (Op.unop_name op) (Value.to_string a))
        special_operands)
    Op.all_unops

let gen_operand =
  QCheck2.Gen.(
    oneof
      [ oneofl special_operands;
        map (fun i -> Value.I i) int;
        map (fun i -> Value.I i) (int_range (-64) 64);
        map (fun f -> Value.F f) float ])

let ops_on_random_operands =
  Helpers.qcheck_case ~count:2000 "interp" "binops and unops agree with Op.eval"
    QCheck2.Gen.(
      quad (oneofl Op.all_binops) (oneofl Op.all_unops) gen_operand gen_operand)
    (fun (bop, uop, a, b) -> binop_agrees bop a b && unop_agrees uop a)

let suite =
  [
    Alcotest.test_case "arith semantics" `Quick test_arith;
    Alcotest.test_case "float conversions" `Quick test_float_conversions;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero_reported;
    Alcotest.test_case "undefined register read" `Quick test_undefined_register_read;
    Alcotest.test_case "out-of-bounds store" `Quick test_out_of_bounds_store;
    Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
    Alcotest.test_case "alloca stack discipline" `Quick test_alloca_stack_discipline;
    Alcotest.test_case "alloca fill value" `Quick test_alloca_init_value;
    Alcotest.test_case "count categories" `Quick test_counts_categories;
    Alcotest.test_case "emit trace order" `Quick test_emit_trace_order;
    Alcotest.test_case "phi parallel evaluation" `Quick test_phi_parallel_evaluation;
    Alcotest.test_case "missing routine" `Quick test_missing_routine;
    Alcotest.test_case "call arity" `Quick test_wrong_arity_call;
    Alcotest.test_case "error texts, read order and fuel" `Quick test_exactness_table;
    Alcotest.test_case "fuel is exact on kernels at every level" `Slow
      test_fuel_exact_on_kernels;
    fuel_exact_on_generated;
    Alcotest.test_case "ops agree with Op.eval on special operands" `Quick
      test_ops_on_special_operands;
    ops_on_random_operands;
  ]
