(** Routines that once miscompiled, run through every non-chaos registry
    pass and every level. Each result must pass [Verify] and return
    exactly what the unoptimized routine returns (bit for bit: [inf] is
    not [nan], and [-inf] is not [inf]).

    - An entry block with a predecessor: SSA construction starts renaming
      at the entry, so a loop back into it needs a phi there, which no
      dominance frontier gives it. [Cfg.give_entry_no_preds] gives such a
      routine a fresh entry first.
    - Two constants that differ only in the sign of zero: tables keyed by
      constants, and the constant-propagation lattice, once took [0.0]
      and [-0.0] for one value, and [1/0.0] is [inf] while [1/-0.0] is
      [-inf].
    - [x fadd 0.0] is not [x]: for [x = -0.0] the sum is [0.0]. The
      peephole pass and value numbering once rewrote it to [x] from an
      identity table of their own; every rewriter now reads the one table
      of [Algebra], which holds [x fadd -0.0 = x] instead. *)

open Epre_ir

(* B0 is the loop header and the entry: with (2, 1) it doubles r1 three
   times and returns 8. *)
let entry_copy_loop =
  {|
routine main(r0, r1) entry B0 regs 4 {
B0:
  r2 = add r1, r1
  cbr r0, B1, B2
B1:
  r1 = copy r2
  r3 = const 1
  r0 = sub r0, r3
  jump B0
B2:
  return r2
}
|}

(* The same loop with the doubling evaluated again in the body. *)
let entry_recomputed_loop =
  {|
routine main(r0, r1) entry B0 regs 4 {
B0:
  r2 = add r1, r1
  cbr r0, B1, B2
B1:
  r3 = const 1
  r0 = sub r0, r3
  r1 = add r1, r1
  jump B0
B2:
  return r2
}
|}

(* 1/0.0 - 1/-0.0 = inf - (-inf) = inf; with the zeros merged it is nan. *)
let zero_one_block =
  {|
routine main(r0) entry B0 regs 5 {
B0:
  r1 = const 0.0
  r2 = const -0.0
  r3 = fdiv r0, r1
  r4 = fdiv r0, r2
  r3 = fsub r3, r4
  return r3
}
|}

(* r1 is 0.0 on one arm and -0.0 on the other; on the -0.0 arm 1/r1 is
   -inf, which a lattice meet of the two zeros turns into inf. *)
let zero_diamond =
  {|
routine main(r0, r5) entry B0 regs 6 {
B0:
  cbr r5, B1, B2
B1:
  r1 = const 0.0
  jump B3
B2:
  r1 = const -0.0
  jump B3
B3:
  r3 = fdiv r0, r1
  return r3
}
|}

(* r3 = -r0 + 0.0: for r0 = 0.0 it is 0.0, so 1/r3 is inf; taken for
   -r0 it is -inf. *)
let zero_fadd =
  {|
routine main(r0) entry B0 regs 6 {
B0:
  r1 = const 0.0
  r2 = fneg r0
  r3 = fadd r2, r1
  r4 = const 1.0
  r5 = fdiv r4, r3
  return r5
}
|}

(* The same sum as reassociation sees it after rewriting r1 - r0 as
   r1 + (-r0). *)
let zero_fsub =
  {|
routine main(r0) entry B0 regs 6 {
B0:
  r1 = const 0.0
  r2 = fsub r1, r0
  r3 = fadd r2, r1
  r4 = const 1.0
  r5 = fdiv r4, r3
  return r5
}
|}

let cases =
  [
    ("entry with a predecessor", entry_copy_loop, [ Value.I 2; Value.I 1 ], Value.I 8);
    ("entry re-evaluated in the loop", entry_recomputed_loop, [ Value.I 2; Value.I 1 ], Value.I 8);
    ("signed zero, one block", zero_one_block, [ Value.F 1.0 ], Value.F Float.infinity);
    ("signed zero, diamond", zero_diamond, [ Value.F 1.0; Value.I 0 ], Value.F Float.neg_infinity);
    ("signed zero, x fadd 0.0", zero_fadd, [ Value.F 0.0 ], Value.F Float.infinity);
    ("signed zero, x fsub y fadd 0.0", zero_fsub, [ Value.F 0.0 ], Value.F Float.infinity);
  ]

(* A miscompiled loop can run forever, so interpretation has fuel. *)
let result prog args =
  match Epre_interp.Interp.run ~fuel:100_000 prog ~entry:"main" ~args with
  | r -> Ok r.Epre_interp.Interp.return_value
  | exception Epre_interp.Interp.Out_of_fuel -> Error "out of fuel"
  | exception Epre_interp.Interp.Runtime_error m -> Error ("runtime error: " ^ m)

(* Bit for bit, not the harness's float tolerance. *)
let value = Alcotest.testable Value.pp Value.equal

let check ~what ~args ~want p =
  (match Epre_verify.Verify.errors (Epre_verify.Verify.check_program p) with
  | [] -> ()
  | errs -> Alcotest.failf "%s: %s" what (Epre_verify.Verify.render errs));
  Alcotest.(check (result (option value) string)) what (Ok (Some want)) (result p args)

let needs_naming = [ "pre"; "pre-classic"; "cse-avail" ]

let test_case (name, source, args, want) =
  Alcotest.test_case name `Quick (fun () ->
      let prog = Ir_text.parse_program source in
      check ~what:"unoptimized" ~args ~want prog;
      List.iter
        (fun (pass : Epre.Pipeline.entry) ->
          let p = Program.copy prog in
          List.iter
            (fun r ->
              if List.mem pass.name needs_naming then ignore (Epre_opt.Naming.run r);
              (Epre.Passes.to_named pass).run r;
              Routine.validate r)
            (Program.routines p);
          check ~what:pass.name ~args ~want p)
        (List.filter (fun p -> not (Epre.Passes.is_chaos p)) Epre.Passes.all);
      List.iter
        (fun level ->
          let p, _ = Epre.Pipeline.optimized_copy ~level prog in
          check ~what:(Epre.Pipeline.level_to_string level) ~args ~want p)
        Epre.Pipeline.all_levels)

let suite = List.map test_case cases
