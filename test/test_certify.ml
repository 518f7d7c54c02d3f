(** The exec tier's step checkers ([Epre_verify.Certify]).

    Side by side: over every kernel at every level, and over generated
    programs, each step a checker accepts is run anyway, and its fresh
    observation must be bit-equal to the one before the step — the
    observation the harness keeps instead — within the operations its
    growth allows. Then one hand-made step per rule, each broken the way
    a faulty pass would break it, must be declined, and the harness must
    not certify a step whose growth would outrun a small interpreter
    budget. The identity table's rows hold under the evaluator, and the
    value checker applies each of them. Last, mutants of real
    value-correspondence steps: each one the checker accepts must
    observe like the step's input. *)

open Epre_ir
module Certify = Epre_verify.Certify
module Harness = Epre_harness.Harness
module Metrics = Epre_telemetry.Metrics

let fuel = Epre_interp.Interp.default_fuel

(* Bit for bit: [Value.equal], not the harness's float tolerance. *)
let bit_equal (a : Harness.obs) (b : Harness.obs) =
  match (a, b) with
  | Ok (ra, ta), Ok (rb, tb) -> Option.equal Value.equal ra rb && List.equal Value.equal ta tb
  | Error x, Error y -> String.equal x y
  | Ok _, Error _ | Error _, Ok _ -> false

(* An observation and the fuel each routine burned itself. *)
let observe_own prog =
  match Epre_interp.Interp.run ~fuel prog ~entry:"main" ~args:[] with
  | r -> (Ok (r.Epre_interp.Interp.return_value, r.Epre_interp.Interp.trace), Some r.Epre_interp.Interp.own_fuel)
  | exception e -> (Error (Printexc.to_string e), None)

(* Run [level] pass-major over [prog] as the harness does, observing
   after every step that changes a routine. Returns how many steps each
   checker accepted; fails on an accepted step whose observation moved,
   or whose routine burned more fuel itself than its growth allows. *)
let side_by_side ~what ~level prog accepted =
  let current = ref (observe_own prog) in
  List.iter
    (fun (np : Harness.named_pass) ->
      List.iteri
        (fun k (r : Routine.t) ->
          let snapshot = Routine.copy r in
          np.Harness.run r;
          if not (Routine.equal r snapshot) then begin
            let before, own = !current in
            let verdict =
              match (before, np.Harness.checks.Harness.certify) with
              | Ok _, Some check -> check ~before:snapshot ~after:r
              | _ -> None
            in
            let ((fresh, fresh_own) as observed) = observe_own prog in
            Option.iter
              (fun growth ->
                Hashtbl.replace accepted np.Harness.pass_name
                  (1 + Option.value ~default:0 (Hashtbl.find_opt accepted np.Harness.pass_name));
                if not (bit_equal before fresh) then
                  Alcotest.failf "%s: %s on %s accepted, but observed %s, was %s" what
                    np.Harness.pass_name r.Routine.name (Harness.describe_obs fresh)
                    (Harness.describe_obs before);
                match (own, fresh_own) with
                | Some n, Some n' when float_of_int n'.(k) > growth *. float_of_int n.(k) ->
                  Alcotest.failf "%s: %s on %s grew its own fuel %d to %d, past growth %g" what
                    np.Harness.pass_name r.Routine.name n.(k) n'.(k) growth
                | _ -> ())
              verdict;
            current := observed
          end)
        (Program.routines prog))
    (Epre.Pipeline.level_passes ~level)

let check_every_checker_accepted accepted =
  List.iter
    (fun pass ->
      Alcotest.(check bool)
        (pass ^ " accepted at least once")
        true
        (Option.value ~default:0 (Hashtbl.find_opt accepted pass) > 0))
    [ "pre"; "dce"; "clean"; "constprop"; "coalesce"; "gvn"; "peephole" ]

let test_kernels_side_by_side () =
  let accepted = Hashtbl.create 4 in
  List.iter
    (fun level ->
      List.iter
        (fun w ->
          let what =
            w.Epre_workloads.Workloads.name ^ " " ^ Epre.Pipeline.level_to_string level
          in
          side_by_side ~what ~level (Epre_workloads.Workloads.compile w) accepted)
        Epre_workloads.Workloads.all)
    Epre.Pipeline.all_levels;
  check_every_checker_accepted accepted

let test_generated_side_by_side () =
  let accepted = Hashtbl.create 4 in
  for seed = 0 to 24 do
    let source = Epre_fuzz.Gen.source seed in
    List.iter
      (fun level ->
        let what = Printf.sprintf "Gen seed %d %s" seed (Epre.Pipeline.level_to_string level) in
        side_by_side ~what ~level (Epre_frontend.Frontend.compile_string source) accepted)
      Epre.Pipeline.all_levels
  done;
  check_every_checker_accepted accepted

(* --- one broken step per rule ---------------------------------------- *)

(* One block of ILOC text, from its instruction lines. *)
let block label lines term =
  let body = String.concat "" (List.map (fun l -> "  " ^ l ^ "\n") lines) in
  Printf.sprintf "%s:\n%s  %s\n" label body term

(* A diamond whose join recomputes what the B1 arm computed. *)
let diamond ?(b0 = []) ~b1 ~b2 ~b3 ?(cbr = "cbr r2, B1, B2") () =
  "routine main() entry B0 regs 11 {\n"
  ^ block "B0" ([ "r0 = const 3"; "r1 = const 4"; "r2 = const 1"; "r8 = const 0" ] @ b0) cbr
  ^ block "B1" b1 "jump B3"
  ^ block "B2" b2 "jump B3"
  ^ block "B3" (b3 @ [ "call emit(r9)" ]) "return r9"
  ^ "}\n"

let routine text =
  match Program.routines (Ir_text.parse_program text) with
  | [ r ] -> r
  | _ -> Alcotest.fail "expected one routine"

let verdict check before after = check ~before:(routine before) ~after:(routine after)

let accepts check ~what before after =
  Alcotest.(check bool) what true (verdict check before after <> None)

let declines check ~what before after =
  Alcotest.(check bool) what true (verdict check before after = None)

let add = "r3 = add r0, r1"

let use = [ "r9 = copy r3" ]

(* PRE's step on the diamond: insert at the end of B2, delete at the join. *)
let add_before = diamond ~b1:[ add ] ~b2:[] ~b3:(add :: use) ()

let add_after = diamond ~b1:[ add ] ~b2:[ add ] ~b3:use ()

let test_motion_accepts () =
  accepts Certify.motion ~what:"PRE's step" add_before add_after;
  let r = routine add_before in
  let before = Routine.copy r in
  ignore (Epre_pre.Pre.run r);
  Alcotest.(check bool) "Pre.run's own step" true (Certify.motion ~before ~after:r <> None);
  accepts Certify.motion ~what:"a dead const deleted"
    (diamond ~b0:[ "r6 = const 9" ] ~b1:[ add ] ~b2:[] ~b3:(add :: use) ())
    add_before;
  (* The join divides the same values, and loads from the same memory,
     so the insertions on B2 cannot fault. *)
  let div = "r3 = div r0, r1" in
  accepts Certify.motion ~what:"an int div inserted, paid"
    (diamond ~b1:[ div ] ~b2:[] ~b3:(div :: use) ())
    (diamond ~b1:[ div ] ~b2:[ div ] ~b3:use ());
  let alloca = "r7 = alloca 1, 0" and load = "r3 = load r7" in
  accepts Certify.motion ~what:"a load inserted, paid"
    (diamond ~b0:[ alloca ] ~b1:[ load ] ~b2:[] ~b3:(load :: use) ())
    (diamond ~b0:[ alloca ] ~b1:[ load ] ~b2:[ load ] ~b3:use ())

let test_motion_declines () =
  declines Certify.motion ~what:"the insertion the deletion relies on, dropped" add_before
    (diamond ~b1:[ add ] ~b2:[] ~b3:use ());
  declines Certify.motion ~what:"the insertion on the other edge" add_before
    (diamond ~b1:[ add; add ] ~b2:[] ~b3:use ());
  declines Certify.motion ~what:"a live evaluation deleted" add_before
    (String.concat "\n"
       (List.filter (fun l -> l <> "  r1 = const 4") (String.split_on_char '\n' add_after)));
  (* The join reads the old [r8] before recomputing it: inserting the
     recomputation at the end of B2 is paid for by the join's, but
     writes a name the input still reads. *)
  let mul = "r8 = mul r0, r1" and sum = [ "r10 = add r8, r0" ] in
  declines Certify.motion ~what:"an insertion into a name live in the input"
    (diamond ~b1:[ mul ] ~b2:[] ~b3:(sum @ [ mul; "r9 = add r10, r8" ]) ())
    (diamond ~b1:[ mul ] ~b2:[ mul ] ~b3:(sum @ [ "r9 = add r10, r8" ]) ());
  (* Dead, but nothing later evaluates it: it could fault (an fadd of
     ints raises) and it lengthens the path. *)
  declines Certify.motion ~what:"an insertion nothing pays for" add_before
    (diamond ~b1:[ add ] ~b2:[ "r5 = fadd r0, r1" ] ~b3:(add :: use) ());
  declines Certify.motion ~what:"an insertion paid for twice" add_before
    (diamond ~b1:[ add ] ~b2:[ add; add ] ~b3:use ());
  (* Nothing later divides by r8 = 0: the insertion would fault. *)
  declines Certify.motion ~what:"an int div inserted, unpaid" add_before
    (diamond ~b1:[ add ] ~b2:[ "r5 = div r0, r8" ] ~b3:(add :: use) ());
  (* The join's load reads memory the store in between has changed. *)
  let alloca = "r7 = alloca 1, 0" and load = "r3 = load r7" and store = "store r7, r0" in
  declines Certify.motion ~what:"a load inserted across a store"
    (diamond ~b0:[ alloca ] ~b1:[ load ] ~b2:[] ~b3:(store :: load :: use) ())
    (diamond ~b0:[ alloca ] ~b1:[ load ] ~b2:[ load ] ~b3:(store :: use) ());
  declines Certify.motion ~what:"a dead alloca deleted"
    (diamond ~b0:[ "r7 = alloca 1, 0" ] ~b1:[ add ] ~b2:[] ~b3:(add :: use) ())
    add_before;
  declines Certify.motion ~what:"a cbr arm retargeted" add_before
    (diamond ~b1:[ add ] ~b2:[ add ] ~b3:use ~cbr:"cbr r2, B2, B2" ())

let test_jump_chains () =
  let r = routine add_before in
  let before = Routine.copy r in
  ignore (Epre_opt.Clean.run r);
  Alcotest.(check bool) "Clean.run's step" true (Certify.jump_chains ~before ~after:r <> None);
  Alcotest.(check bool) "it merged blocks" false (Routine.equal before r);
  (* Both arms only jump to the join: the branch folds to a jump. *)
  let r = routine (diamond ~b1:[] ~b2:[] ~b3:use ()) in
  let before = Routine.copy r in
  ignore (Epre_opt.Clean.run r);
  Alcotest.(check bool) "a branch whose arms meet folded" true
    (Certify.jump_chains ~before ~after:r <> None);
  declines Certify.jump_chains ~what:"a cbr arm retargeted" add_before
    (diamond ~b1:[ add ] ~b2:[] ~b3:(add :: use) ~cbr:"cbr r2, B2, B1" ());
  declines Certify.jump_chains ~what:"an instruction dropped" add_before
    (diamond ~b1:[] ~b2:[] ~b3:(add :: use) ())

(* --- value correspondence ------------------------------------------ *)

(* A routine [f] of two parameters, whose values no checker can fold,
   from its blocks as (label, lines, terminator), in id order. *)
let f_of blocks =
  "routine f(r0, r1) entry B0 regs 8 {\n"
  ^ String.concat "" (List.map (fun (l, lines, term) -> block l lines term) blocks)
  ^ "}\n"

(* [f_of] for one block that emits and returns [r]. *)
let straight ?(r = "r4") lines = f_of [ ("B0", lines @ [ "call emit(" ^ r ^ ")" ], "return " ^ r) ]

(* The step [run] takes on [text] changes it, and [Certify.values]
   accepts it. *)
let pass_accepted ~what run text =
  let r = routine text in
  let before = Routine.copy r in
  run r;
  Alcotest.(check bool) (what ^ " changed the routine") false (Routine.equal before r);
  Alcotest.(check bool) (what ^ " accepted") true (Certify.values ~before ~after:r <> None)

let folds = straight [ "r2 = const 2"; "r3 = const 3"; "r4 = add r2, r3" ]

let zeros = straight [ "r2 = const 0x0p+0"; "r3 = const -0x0p+0"; "r4 = fadd r2, r3" ]

(* A branch constprop decides, to two arms that differ. *)
let decided ~b0_term =
  f_of
    [ ("B0", [ "r2 = const 2"; "r3 = const 3"; "r5 = cmp_lt r2, r3" ], b0_term);
      ("B1", [ "r4 = mul r0, r1" ], "jump B3");
      ("B2", [ "r4 = copy r1" ], "jump B3");
      ("B3", [ "call emit(r4)" ], "return r4") ]

(* [r3] is a copy of the first [r2], which is live while [r2] is
   redefined: the two interfere. *)
let interfering =
  straight [ "r2 = add r0, r1"; "r3 = copy r2"; "r2 = mul r0, r1"; "r4 = sub r3, r2" ]

(* The edge B0 -> B2 is critical; [r2] is [r0] along it. *)
let critical =
  f_of
    [ ("B0", [ "r2 = copy r0" ], "cbr r1, B1, B2");
      ("B1", [ "r2 = add r0, r0" ], "jump B2");
      ("B2", [ "call emit(r2)" ], "return r2") ]

(* Out of SSA with the edge split: the copy to the join's name stands
   in a landing block B3 on the old critical edge. *)
let critical_split ~landing =
  f_of
    [ ("B0", [], "cbr r1, B1, B3");
      ("B1", [ "r5 = add r0, r0"; "r6 = copy r5" ], "jump B2");
      ("B2", [ "call emit(r6)" ], "return r6");
      ("B3", [ landing ], "jump B2") ]

let memory = [ "r2 = alloca 1, 0"; "store r2, r0"; "r3 = load r2" ]

(* A loop that emits its counter, the parameter [r1], before counting. *)
let counting ~b0 ~b1 =
  f_of
    [ ("B0", "r3 = const 1" :: b0, "jump B1");
      ("B1", b1 @ [ "r1 = add r1, r3"; "r4 = cmp_lt r1, r0" ], "cbr r4, B1, B2");
      ("B2", [], "return r1") ]

let test_values_accepts () =
  let constprop r = ignore (Epre_opt.Constprop.run r) in
  pass_accepted ~what:"constprop" constprop (decided ~b0_term:"cbr r5, B1, B2");
  pass_accepted ~what:"constprop" constprop critical;
  pass_accepted ~what:"coalesce" (fun r -> ignore (Epre_opt.Coalesce.run r))
    (straight [ "r2 = add r0, r1"; "r3 = copy r2"; "r4 = mul r3, r3" ]);
  pass_accepted ~what:"gvn" (fun r -> ignore (Epre_gvn.Gvn.run r))
    (straight [ "r2 = add r0, r1"; "r3 = add r0, r1"; "r4 = mul r2, r3" ]);
  accepts Certify.values ~what:"the right fold" folds (straight [ "r4 = const 5" ]);
  accepts Certify.values ~what:"a fold to 0.0" zeros (straight [ "r4 = const 0x0p+0" ]);
  accepts Certify.values ~what:"the decided branch" (decided ~b0_term:"cbr r5, B1, B2")
    (decided ~b0_term:"jump B1");
  accepts Certify.values ~what:"the split edge" critical (critical_split ~landing:"r6 = copy r0");
  (* The copy follows the count: it holds this iteration's value. *)
  accepts Certify.values ~what:"a copy kept in step with the loop"
    (counting ~b0:[] ~b1:[ "call emit(r1)" ])
    (f_of
       [ ("B0", [ "r3 = const 1"; "r5 = copy r1" ], "jump B1");
         ("B1", [ "call emit(r5)"; "r1 = add r1, r3"; "r5 = copy r1"; "r4 = cmp_lt r1, r0" ],
          "cbr r4, B1, B2");
         ("B2", [], "return r5") ])

let test_values_declines () =
  declines Certify.values ~what:"two registers live at once coalesced" interfering
    (straight [ "r2 = add r0, r1"; "r2 = mul r0, r1"; "r4 = sub r2, r2" ]);
  declines Certify.values ~what:"a fold to the wrong constant" folds (straight [ "r4 = const 6" ]);
  declines Certify.values ~what:"a fold to -0.0 where the input computes 0.0" zeros
    (straight [ "r4 = const -0x0p+0" ]);
  declines Certify.values ~what:"a decided branch sent to the wrong arm"
    (decided ~b0_term:"cbr r5, B1, B2") (decided ~b0_term:"jump B2");
  declines Certify.values ~what:"a split-edge copy from the wrong register" critical
    (critical_split ~landing:"r6 = copy r1");
  declines Certify.values ~what:"a dropped call"
    (straight ~r:"r3" memory)
    (f_of [ ("B0", memory, "return r3") ]);
  declines Certify.values ~what:"a dropped store"
    (straight ~r:"r3" memory)
    (straight ~r:"r3" [ "r2 = alloca 1, 0"; "r3 = load r2" ]);
  declines Certify.values ~what:"an output-only load"
    (straight ~r:"r3" memory)
    (straight ~r:"r3" (memory @ [ "r4 = load r2" ]));
  declines Certify.values ~what:"an output-only call"
    (straight ~r:"r3" memory)
    (straight ~r:"r3" (memory @ [ "call emit(r0)" ]));
  declines Certify.values ~what:"a GVN rename that merges two values"
    (straight [ "r2 = add r0, r1"; "r3 = sub r0, r1"; "r4 = mul r2, r3" ])
    (straight [ "r2 = add r0, r1"; "r2 = sub r0, r1"; "r4 = mul r2, r2" ]);
  (* [r5] takes the count before it moves on: from the second iteration
     on, the output emits the last iteration's value. [r5] enters the
     loop with the count's number from both edges (the count's at the
     entry, and the one the count's class had at the top of the
     iteration that just ended, which the class is named by again), so
     a meet that kept a number every edge agrees on would accept. *)
  declines Certify.values ~what:"a loop that reads last iteration's value"
    (counting ~b0:[] ~b1:[ "call emit(r1)" ])
    (counting ~b0:[ "r5 = copy r1" ] ~b1:[ "call emit(r5)"; "r5 = copy r1" ])

(* The signed-zero reproducer: [x fadd 0.0] is not [x] when [x = -0.0]
   (the sum is 0.0), and [1.0 fdiv] tells the two zeros apart. The
   checker folds only through the evaluator, so it cannot prove the
   identity [Peephole] uses. *)
let test_values_signed_zero () =
  let text =
    "routine main(r0) entry B0 regs 6 {\n"
    ^ block "B0"
        [ "r1 = const 0x0p+0"; "r2 = fneg r0"; "r3 = fadd r2, r1"; "r4 = const 0x1p+0";
          "r5 = fdiv r4, r3" ]
        "return r5"
    ^ "}\n"
  in
  let r = routine text in
  let before = Routine.copy r in
  ignore (Epre_opt.Peephole.run ~config:{ Epre_opt.Peephole.mul_to_shift = true } r);
  Alcotest.(check bool) "peephole rewrote x fadd 0.0" false (Routine.equal before r);
  Alcotest.(check bool) "declined" true (Certify.values ~before ~after:r = None)

(* The broken rewrites a faulty peephole pass might make, each from the
   identity it gets wrong. *)
let test_values_declines_peephole () =
  let zero = "r2 = const 0x0p+0" in
  declines Certify.values ~what:"x fmul 0.0 -> 0.0"
    (straight [ zero; "r4 = fmul r0, r2" ])
    (straight [ zero; "r4 = copy r2" ]);
  declines Certify.values ~what:"x fsub x -> 0.0"
    (straight [ "r4 = fsub r0, r0" ])
    (straight [ "r4 = const 0x0p+0" ]);
  declines Certify.values ~what:"x mul 8 -> x shl 2"
    (straight [ "r2 = const 8"; "r4 = mul r0, r2" ])
    (straight [ "r2 = const 2"; "r4 = shl r0, r2" ]);
  declines Certify.values ~what:"a + (-b) -> a - b with b redefined in between"
    (straight [ "r2 = neg r1"; "r1 = add r0, r0"; "r4 = add r0, r2" ])
    (straight [ "r2 = neg r1"; "r1 = add r0, r0"; "r4 = sub r0, r1" ]);
  declines Certify.values ~what:"x fadd 0.0 -> x"
    (straight [ zero; "r4 = fadd r0, r2" ])
    (straight [ zero; "r4 = copy r0" ]);
  declines Certify.values ~what:"0.0 fadd x -> x"
    (straight [ zero; "r4 = fadd r2, r0" ])
    (straight [ zero; "r4 = copy r0" ]);
  (* [r0 fmul 1.0] and [r0 add 0] both number as [r0], but [r0] is a
     float where the input completes the fmul: the output's add would
     fault. *)
  declines Certify.values ~what:"an output evaluation of the wrong type"
    (straight [ "r2 = const 0x1p+0"; "r4 = fmul r0, r2" ])
    (straight [ "r2 = const 0"; "r4 = add r0, r2" ])

let test_values_accepts_peephole () =
  let peephole r =
    ignore (Epre_opt.Peephole.run ~config:{ Epre_opt.Peephole.mul_to_shift = true } r)
  in
  pass_accepted ~what:"peephole's shift" peephole
    (straight [ "r2 = const 8"; "r3 = mul r2, r0"; "r4 = add r3, r1" ]);
  pass_accepted ~what:"peephole's subtraction" peephole
    (straight [ "r2 = fneg r1"; "r3 = fmul r0, r0"; "r4 = fadd r2, r3" ]);
  pass_accepted ~what:"peephole's identities" peephole
    (straight
       [ "r2 = const 0"; "r3 = add r0, r2"; "r5 = const 1"; "r6 = mul r5, r3"; "r7 = neg r6";
         "r6 = neg r7"; "r4 = sub r6, r6" ]);
  (* A branch on [x cmp_le x] is decided, and the float negation is
     folded to a constant before [fadd] reads it. *)
  pass_accepted ~what:"peephole's self comparison" peephole
    (f_of
       [ ("B0", [ "r2 = cmp_le r0, r0" ], "cbr r2, B1, B2");
         ("B1", [ "r3 = const 0x1p+1"; "r5 = fneg r3"; "r4 = fadd r1, r5" ], "jump B2");
         ("B2", [ "call emit(r1)" ], "return r1") ]);
  (* The walk's first pass over the loop sees [r5] as the constant 0,
     where peephole saw a register: [0 add (neg r1)] must number as
     [0 sub r1] does. *)
  pass_accepted ~what:"peephole's subtraction in a loop" peephole
    (f_of
       [ ("B0", [ "r5 = const 0" ], "jump B1");
         ("B1", [ "r3 = neg r1"; "r4 = add r5, r3"; "r5 = add r5, r0"; "r6 = cmp_lt r5, r4" ],
          "cbr r6, B1, B2");
         ("B2", [ "call emit(r4)" ], "return r4") ]);
  (* A [neg] of a float constant does not fold, so [x add (neg c)] and
     [x sub c] name each other: the walk must still end. *)
  ignore
    (verdict Certify.values
       (straight [ "r2 = const 0x1p+0"; "r3 = neg r2"; "r4 = add r0, r3" ])
       (straight [ "r2 = const 0x1p+0"; "r3 = neg r2"; "r4 = sub r0, r2" ]))

(* --- the identity table ---------------------------------------------- *)

let rec reads var = function
  | Certify.U (op, t) -> if t = var then Some (Op.unop_operand_ty op) else reads var t
  | Certify.B (op, a, b) ->
    if a = var || b = var then Some (Op.binop_operand_ty op)
    else Option.fold ~none:(reads var b) ~some:Option.some (reads var a)
  | Certify.X | Certify.Y | Certify.C | Certify.K _ | Certify.N | Certify.Pow2 -> None

(* A row's operands: x, y, c and n. *)
type env = { x : Value.t; y : Value.t; c : Value.t; n : int }

let rec eval env = function
  | Certify.X -> env.x
  | Certify.Y -> env.y
  | Certify.C -> env.c
  | Certify.K v -> v
  | Certify.N -> Value.I env.n
  | Certify.Pow2 -> Value.I (1 lsl env.n)
  | Certify.U (op, t) -> Op.eval_unop op (eval env t)
  | Certify.B (op, a, b) -> Op.eval_binop op (eval env a) (eval env b)

let special_ints = [ 0; 1; -1; 2; 63; min_int; max_int; min_int + 1; max_int - 1 ]

let special_floats =
  [ Float.nan; Float.neg Float.nan; 0.0; -0.0; Float.infinity; Float.neg_infinity; 1.0; -1.0;
    Float.max_float; Float.min_float; Float.epsilon ]

let gen_value ty =
  let open QCheck2.Gen in
  match ty with
  | Some Ty.Flt ->
    map (fun f -> Value.F f) (oneof [ oneofl special_floats; float; float_range (-8.0) 8.0 ])
  | Some Ty.Int | None ->
    map (fun i -> Value.I i) (oneof [ oneofl special_ints; int; int_range (-8) 8 ])

(* Both sides are equal under [Value.equal] wherever the left one
   evaluates: for random operands of the types the left side reads them
   at, and for NaN, both zeros, both infinities, [min_int] and
   [max_int]. *)
let row_property (row : Certify.identity) =
  let gen =
    QCheck2.Gen.(
      map
        (fun (x, y, c, n) -> { x; y; c; n })
        (quad
           (gen_value (reads Certify.X row.Certify.lhs))
           (gen_value (reads Certify.Y row.Certify.lhs))
           (gen_value (reads Certify.C row.Certify.lhs))
           (oneof [ oneofl [ 0; 1; 61; 62 ]; int_range 0 62 ])))
  in
  Helpers.qcheck_case ~count:500 "identity" row.Certify.name gen (fun env ->
      match eval env row.Certify.lhs with
      | exception (Op.Division_by_zero | Value.Type_error _) -> true
      | l -> (
        match eval env row.Certify.rhs with
        | exception (Op.Division_by_zero | Value.Type_error _) -> false
        | r -> Value.equal l r))

(* The value checker matches a commutative operator's operands either
   way, so each must commute under [Value.equal]. *)
let commutes_property =
  let ops = List.filter Op.commutative Op.all_binops in
  let gen =
    QCheck2.Gen.(
      oneofl ops >>= fun op ->
      let ty = Some (Op.binop_operand_ty op) in
      map (fun (a, b) -> (op, a, b)) (pair (gen_value ty) (gen_value ty)))
  in
  Helpers.qcheck_case ~count:1000 "identity" "commutative operators commute" gen
    (fun (op, a, b) ->
      match Op.eval_binop op a b with
      | exception (Op.Division_by_zero | Value.Type_error _) -> true
      | v -> Value.equal v (Op.eval_binop op b a))

(* A routine [f(r0, r1)] computing [term] for x = r0, y = r1, c = [c]
   and n = 3; a subterm without operands is computed as its constant,
   as a pass folds it. *)
let routine_of_term ~c term =
  let env = { x = Value.I 0; y = Value.I 0; c; n = 3 } in
  let lines = ref [] and next = ref 2 in
  let emit line =
    let r = Printf.sprintf "r%d" !next in
    incr next;
    lines := (r ^ " = " ^ line) :: !lines;
    r
  in
  let rec has_operand = function
    | Certify.X | Certify.Y -> true
    | Certify.C | Certify.K _ | Certify.N | Certify.Pow2 -> false
    | Certify.U (_, t) -> has_operand t
    | Certify.B (_, a, b) -> has_operand a || has_operand b
  in
  let rec go t =
    match t with
    | Certify.X -> "r0"
    | Certify.Y -> "r1"
    | _ when not (has_operand t) -> emit ("const " ^ Value.to_string (eval env t))
    | Certify.U (op, a) ->
      let a = go a in
      emit (Printf.sprintf "%s %s" (Op.unop_name op) a)
    | Certify.B (op, a, b) ->
      let a = go a in
      let b = go b in
      emit (Printf.sprintf "%s %s, %s" (Op.binop_name op) a b)
    | Certify.C | Certify.K _ | Certify.N | Certify.Pow2 -> assert false
  in
  let r = go term in
  "routine f(r0, r1) entry B0 regs 16 {\n"
  ^ block "B0" (List.rev !lines @ [ "call emit(" ^ r ^ ")" ]) ("return " ^ r)
  ^ "}\n"

(* Each row is one the checker applies: the routine computing its left
   side steps to the one computing its right side. *)
let test_rows_applied () =
  List.iter
    (fun (row : Certify.identity) ->
      let c =
        match reads Certify.C row.Certify.lhs with
        | Some Ty.Flt -> Value.F 2.5
        | Some Ty.Int | None -> Value.I 5
      in
      accepts Certify.values ~what:row.Certify.name
        (routine_of_term ~c row.Certify.lhs)
        (routine_of_term ~c row.Certify.rhs))
    Certify.identities;
  Alcotest.(check bool) "x fadd 0.0 is no row" false
    (List.exists
       (fun (row : Certify.identity) ->
         match row.Certify.lhs with
         | Certify.B (Op.FAdd, _, Certify.K v) | Certify.B (Op.FAdd, Certify.K v, _) ->
           Value.equal v (Value.F 0.0)
         | _ -> false)
       Certify.identities)

(* --- growth ------------------------------------------------------------ *)

(* A diamond whose B1 arm reaches the join through jump-only B3. The
   step puts two copies into B3, as SSA destruction does into a landing
   block. With [shared], B2 jumps to B3 too. *)
let landing ~shared ~b3 =
  f_of
    [ ("B0", [], "cbr r0, B1, B2");
      ("B1", [ "r4 = add r0, r1" ], "jump B3");
      ("B2", [], if shared then "jump B3" else "jump B4");
      ("B3", b3, "jump B4");
      ("B4", [ "call emit(r1)" ], "return r1") ]

let growth_of before after =
  match verdict Certify.values before after with
  | Some g -> g
  | None -> Alcotest.fail "the copies are a value-correspondence step"

let test_values_growth () =
  let copies = [ "r5 = copy r1"; "r6 = copy r1" ] in
  (* B3 runs at most once per run of B1, its only source, which runs at
     most once per run of B0: the path B0, B1, B3 runs 1 + 2 + 3
     operations in the output where the input ran 1 + 2 + 1. *)
  Alcotest.(check (float 1e-9)) "charged to its source" 1.5
    (growth_of (landing ~shared:false ~b3:[]) (landing ~shared:false ~b3:copies));
  Alcotest.(check (float 1e-9)) "two sources: no charge" 3.0
    (growth_of (landing ~shared:true ~b3:[]) (landing ~shared:true ~b3:copies))

(* [dot] at [-O partial]: SSA destruction puts copies into PRE's
   jump-only landing blocks. Charged to the blocks before them, the
   [constprop] step's growth stays near one, and the harness certifies
   every step of it without a rerun. *)
let test_dot_growth () =
  let w = Option.get (Epre_workloads.Workloads.find "dot") in
  let level = Epre.Pipeline.Partial in
  let prog = Epre_workloads.Workloads.compile w in
  let growths = ref [] in
  List.iter
    (fun (np : Harness.named_pass) ->
      List.iter
        (fun (r : Routine.t) ->
          let snapshot = Routine.copy r in
          np.Harness.run r;
          if np.Harness.pass_name = "constprop" && not (Routine.equal r snapshot) then
            match Certify.values ~before:snapshot ~after:r with
            | Some g -> growths := (r.Routine.name, g) :: !growths
            | None -> Alcotest.failf "constprop on %s declined" r.Routine.name)
        (Program.routines prog))
    (Epre.Pipeline.level_passes ~level);
  Alcotest.(check bool) "constprop changed main" true (List.mem_assoc "main" !growths);
  List.iter
    (fun (name, g) ->
      Alcotest.(check bool) (Printf.sprintf "%s: growth %g below 1.25" name g) true (g < 1.25))
    !growths;
  Metrics.reset ();
  let config = { Harness.default_config with Harness.validation = Harness.Exec } in
  ignore (Epre.Pipeline.optimize_supervised ~config ~level (Epre_workloads.Workloads.compile w));
  let count what = Metrics.get ~routine:"main" ~name:("harness." ^ what ^ ".constprop") in
  Alcotest.(check (pair int int)) "main's constprop: certified, not fuel-bound" (1, 0)
    (count "certified", count "fuel_bound")

(* --- the exec tier's observed steps ------------------------------------ *)

(* Over the kernel suite, the steps the exec tier still observes, per
   pass and level: a step that no checker proves any more shows here. *)
let test_observed_counts () =
  let observed level =
    Metrics.reset ();
    let config = { Harness.default_config with Harness.validation = Harness.Exec } in
    List.iter
      (fun w ->
        ignore (Epre.Pipeline.optimize_supervised ~config ~level (Epre_workloads.Workloads.compile w)))
      Epre_workloads.Workloads.all;
    let counts = Hashtbl.create 8 in
    List.iter
      (fun (e : Metrics.entry) ->
        match String.split_on_char '.' e.Metrics.name with
        | [ "harness"; ("observed" | "fuel_bound") as what; pass ] ->
          let key = what ^ "." ^ pass in
          Hashtbl.replace counts key (e.Metrics.value + Option.value ~default:0 (Hashtbl.find_opt counts key))
        | _ -> ())
      (Metrics.snapshot ());
    List.sort compare (List.of_seq (Hashtbl.to_seq counts))
  in
  let reassociating =
    [ ("observed.peephole", 3); ("observed.reassociation", 91) ]
  in
  List.iter
    (fun (level, want) ->
      Alcotest.(check (list (pair string int)))
        (Epre.Pipeline.level_to_string level)
        want (observed level))
    [ (Epre.Pipeline.Baseline, []); (Epre.Pipeline.Partial, []);
      (Epre.Pipeline.Reassociation, reassociating); (Epre.Pipeline.Distribution, reassociating) ]

(* --- mutation property ----------------------------------------------- *)

(* One random edit of [r], the way a faulty pass might break its output:
   an operand register substituted, a constant changed, [cbr] arms
   swapped, an instruction dropped, a unop's or binop's operator
   replaced, or two neighbours swapped. [None] when the edit finds
   nothing to apply to. *)
let mutate rng (r : Routine.t) =
  let m = Routine.copy r in
  let int n = Random.State.int rng n in
  let pick l = match l with [] -> None | l -> Some (List.nth l (int (List.length l))) in
  let blocks = Cfg.blocks m.Routine.cfg in
  let regs = Array.init (max 1 m.Routine.next_reg) Fun.id in
  let reg () = regs.(int (Array.length regs)) in
  let edit_instr f =
    Option.map
      (fun (b : Block.t) ->
        let k = int (List.length b.Block.instrs) in
        b.Block.instrs <-
          List.concat (List.mapi (fun j i -> if j = k then f i else [ i ]) b.Block.instrs);
        m)
      (pick (List.filter (fun (b : Block.t) -> b.Block.instrs <> []) blocks))
  in
  match int 6 with
  | 0 ->
    edit_instr (fun i ->
        match Instr.uses i with
        | [] -> [ i ]
        | us ->
          let u = List.nth us (int (List.length us)) and v = reg () in
          [ Instr.map_uses (fun x -> if x = u then v else x) i ])
  | 1 ->
    let change = function
      | Value.I n -> Value.I (if int 2 = 0 then n + 1 else -n)
      | Value.F f -> Value.F (if int 2 = 0 then f +. 1.0 else -.f)
    in
    edit_instr (function
      | Instr.Const { dst; value } -> [ Instr.Const { dst; value = change value } ]
      | i -> [ i ])
  | 2 ->
    Option.map
      (fun (b : Block.t) ->
        (match b.Block.term with
        | Instr.Cbr { cond; ifso; ifnot } ->
          b.Block.term <- Instr.Cbr { cond; ifso = ifnot; ifnot = ifso }
        | Instr.Jump _ | Instr.Ret _ -> ());
        m)
      (pick
         (List.filter
            (fun (b : Block.t) -> match b.Block.term with Instr.Cbr _ -> true | _ -> false)
            blocks))
  | 3 -> edit_instr (fun _ -> [])
  | 4 ->
    edit_instr (function
      | Instr.Binop b -> [ Instr.Binop { b with op = Option.get (pick Op.all_binops) } ]
      | Instr.Unop u -> [ Instr.Unop { u with op = Option.get (pick Op.all_unops) } ]
      | i -> [ i ])
  | _ ->
    Option.map
      (fun (b : Block.t) ->
        let a = Array.of_list b.Block.instrs in
        let k = int (Array.length a - 1) in
        let t = a.(k) in
        a.(k) <- a.(k + 1);
        a.(k + 1) <- t;
        b.Block.instrs <- Array.to_list a;
        m)
      (pick (List.filter (fun (b : Block.t) -> List.length b.Block.instrs > 1) blocks))

(* Run [level] over [prog] pass-major; after each [constprop],
   [coalesce], [gvn] and [peephole] step that changed its routine, offer [per_step]
   mutants of its output to [Certify.values]. Each accepted mutant,
   observed in place of the output under the fuel its growth allows,
   must give the step's input observation bit for bit. *)
let mutation_run rng ~what ~level prog (accepted, declined) =
  let per_step = 20 in
  let current = ref (Harness.observe_counted ~fuel prog) in
  List.iter
    (fun (np : Harness.named_pass) ->
      List.iter
        (fun (r : Routine.t) ->
          let snapshot = Routine.copy r in
          np.Harness.run r;
          if not (Routine.equal r snapshot) then begin
            (match !current with
            | (Ok _ as before), Some ops
              when List.mem np.Harness.pass_name [ "constprop"; "coalesce"; "gvn"; "peephole" ] ->
              let output = Routine.copy r in
              for _ = 1 to per_step do
                match mutate rng output with
                | Some m when not (Routine.equal m output) -> (
                  match Certify.values ~before:snapshot ~after:m with
                  | None -> incr declined
                  | Some g ->
                    incr accepted;
                    Routine.restore r ~from:m;
                    let fuel =
                      int_of_float (Float.ceil (Float.max 1.0 g *. float_of_int ops)) + 1
                    in
                    let obs = Harness.observe ~fuel prog in
                    if not (bit_equal before obs) then
                      Alcotest.failf
                        "%s: a mutant of %s on %s accepted, but observed %s, was %s\n%s"
                        what np.Harness.pass_name r.Routine.name (Harness.describe_obs obs)
                        (Harness.describe_obs before) (Ir_text.routine_to_string m))
                | _ -> ()
              done;
              Routine.restore r ~from:output
            | _ -> ());
            current := Harness.observe_counted ~fuel prog
          end)
        (Program.routines prog))
    (Epre.Pipeline.level_passes ~level)

let test_mutants () =
  let rng = Random.State.make [| 32 |] in
  let counts = (ref 0, ref 0) in
  List.iter
    (fun level ->
      let at what prog = mutation_run rng ~what ~level prog counts in
      List.iter
        (fun w -> at w.Epre_workloads.Workloads.name (Epre_workloads.Workloads.compile w))
        Epre_workloads.Workloads.all;
      for seed = 0 to 40 do
        at (Printf.sprintf "Gen seed %d" seed)
          (Epre_frontend.Frontend.compile_string (Epre_fuzz.Gen.source seed))
      done)
    Epre.Pipeline.all_levels;
  let accepted, declined = counts in
  Printf.printf "mutants: %d accepted, %d declined\n" !accepted !declined;
  Alcotest.(check bool) "some mutants accepted" true (!accepted > 0);
  Alcotest.(check bool) "some mutants declined" true (!declined > 0)

(* A counted loop, and a step named [pre] that splits its back edge:
   each iteration now also runs the landing block's jump. The motion
   checker proves the step, with a growth of 4/3; under a budget that
   fits the loop exactly the harness must not certify it (and counts it
   under [harness.fuel_bound.pre]), and the rerun runs out of fuel and
   rolls the step back. Under the default budget the same step is
   certified. *)
let loop =
  {|routine main() entry B0 regs 4 {
B0:
  r0 = const 0
  r1 = const 1
  r2 = const 100
  jump B1
B1:
  r0 = add r0, r1
  r3 = cmp_lt r0, r2
  cbr r3, B1, B2
B2:
  call emit(r0)
  return r0
}
|}

let split_back_edge =
  { Harness.pass_name = "pre";
    run = (fun r -> ignore (Cfg.split_edge r.Routine.cfg ~from_:1 ~to_:1));
    checks = { Harness.no_checks with certify = Some Certify.motion } }

let test_fuel_bound () =
  let before = routine loop in
  let after = Routine.copy before in
  split_back_edge.Harness.run after;
  (match Certify.motion ~before ~after with
  | Some g -> Alcotest.(check (float 1e-9)) "growth" (4.0 /. 3.0) g
  | None -> Alcotest.fail "the split is a motion step");
  let run ~fuel =
    Metrics.reset ();
    let p = Ir_text.parse_program loop in
    let config = { Harness.default_config with Harness.validation = Harness.Exec; fuel } in
    let records = Harness.supervise config ~passes:[ split_back_edge ] p in
    let count what = Metrics.get ~routine:"main" ~name:("harness." ^ what ^ ".pre") in
    ( List.map (fun (r : Harness.record) -> r.Harness.outcome) records,
      count "certified",
      count "observed",
      count "fuel_bound" )
  in
  let exact =
    match Harness.observe_counted ~fuel (Ir_text.parse_program loop) with
    | Ok _, Some n -> n
    | _ -> Alcotest.fail "the loop runs"
  in
  (match run ~fuel:exact with
  | [ Harness.Rolled_back (Harness.Behaviour_mismatch m) ], 0, 1, 1 ->
    Alcotest.(check bool) ("out of fuel: " ^ m) true
      (Helpers.contains_substring ~needle:"out of fuel" m)
  | _ -> Alcotest.fail "a step outgrowing the budget must be observed and rolled back");
  match run ~fuel with
  | [ Harness.Passed ], 1, 0, 0 -> ()
  | _ -> Alcotest.fail "under the default budget the step is certified"

(* A loop whose copies a first [coalesce] step removes and a second puts
   one back. *)
let copies_loop ~b0 ~b1 =
  let lines l = String.concat "" (List.map (fun i -> "  " ^ i ^ "\n") l) in
  Printf.sprintf
    "routine main() entry B0 regs 8 {\nB0:\n%s  r1 = const 1\n  r2 = const 100\n  jump B1\n\
     B1:\n%s  r3 = cmp_lt r0, r2\n  cbr r3, B1, B2\nB2:\n  call emit(r0)\n  return r0\n}\n"
    (lines b0) (lines b1)

let with_copies =
  copies_loop
    ~b0:[ "r4 = const 0"; "r5 = copy r4"; "r6 = copy r5"; "r0 = copy r6" ]
    ~b1:[ "r4 = copy r0"; "r5 = copy r4"; "r6 = copy r5"; "r7 = copy r6"; "r0 = add r7, r1" ]

let coalesced = copies_loop ~b0:[ "r0 = const 0" ] ~b1:[ "r0 = add r0, r1" ]

let recopied = copies_loop ~b0:[ "r0 = const 0" ] ~b1:[ "r4 = copy r0"; "r0 = add r4, r1" ]

(* The bound takes each certified step's growth as given, below 1 too:
   4/7 (B0 keeps 4 of its 7 operations) times 4/3 stays within a budget
   of exactly the reference run's fuel, so both steps are certified.
   Rounding the first growth up to 1 would send the second to the
   interpreter as fuel-bound. *)
let test_fuel_bound_shrinks () =
  let growth before after = Certify.values ~before:(routine before) ~after:(routine after) in
  Alcotest.(check (option (float 1e-9))) "removing copies" (Some (4.0 /. 7.0))
    (growth with_copies coalesced);
  Alcotest.(check (option (float 1e-9))) "adding one back" (Some (4.0 /. 3.0))
    (growth coalesced recopied);
  let exact =
    match Harness.observe_counted ~fuel (Ir_text.parse_program with_copies) with
    | Ok _, Some n -> n
    | _ -> Alcotest.fail "the loop runs"
  in
  let step text =
    { Harness.pass_name = "coalesce";
      run = (fun r -> Routine.restore r ~from:(routine text));
      checks = { Harness.no_checks with certify = Some Certify.values } }
  in
  Metrics.reset ();
  let config = { Harness.default_config with Harness.validation = Harness.Exec; fuel = exact } in
  let records =
    Harness.supervise config ~passes:[ step coalesced; step recopied ] (Ir_text.parse_program with_copies)
  in
  Alcotest.(check bool) "both steps pass" true
    (List.for_all (fun (r : Harness.record) -> r.Harness.outcome = Harness.Passed) records);
  let count what = Metrics.get ~routine:"main" ~name:("harness." ^ what ^ ".coalesce") in
  Alcotest.(check (list int)) "certified, fuel_bound, observed" [ 2; 0; 0 ]
    (List.map count [ "certified"; "fuel_bound"; "observed" ])

(* [main] drops its copies (growth 4/7), then the loop in [h], which
   burns most of the fuel, gains one (growth 4/3). Scaling the whole
   run's fuel by both growths would certify the second step, but the
   loop now runs past the budget: growth bounds a routine's own fuel,
   not its callees'. *)
let test_fuel_bound_per_routine () =
  let program ~main ~h =
    let lines l = String.concat "" (List.map (fun i -> "  " ^ i ^ "\n") l) in
    Printf.sprintf
      "routine h() entry B0 regs 5 {\nB0:\n  r0 = const 0\n  r1 = const 1\n  r2 = const 100\n\
       \  jump B1\nB1:\n%s  r3 = cmp_lt r0, r2\n  cbr r3, B1, B2\nB2:\n  return r0\n}\n\
       routine main() entry B0 regs 5 {\nB0:\n%s  r4 = call h()\n  call emit(r4)\n\
       \  return r4\n}\n"
      (lines h) (lines main)
  in
  let copies = [ "r0 = const 0"; "r1 = copy r0"; "r2 = copy r1"; "r3 = copy r2" ] in
  let loop = [ "r0 = add r0, r1" ] and recopied = [ "r4 = copy r0"; "r0 = add r4, r1" ] in
  let start = program ~main:copies ~h:loop in
  let final = Ir_text.parse_program (program ~main:[ "r0 = const 0" ] ~h:recopied) in
  let step name =
    { Harness.pass_name = "coalesce";
      run =
        (fun r ->
          if r.Routine.name = name then Routine.restore r ~from:(Program.find_exn final name));
      checks = { Harness.no_checks with certify = Some Certify.values } }
  in
  let exact =
    match Harness.observe_counted ~fuel (Ir_text.parse_program start) with
    | Ok _, Some n -> n
    | _ -> Alcotest.fail "the program runs"
  in
  Metrics.reset ();
  let config = { Harness.default_config with Harness.validation = Harness.Exec; fuel = exact } in
  let records =
    Harness.supervise config ~passes:[ step "main"; step "h" ] (Ir_text.parse_program start)
  in
  let count routine what = Metrics.get ~routine ~name:("harness." ^ what ^ ".coalesce") in
  Alcotest.(check int) "main's step certified" 1 (count "main" "certified");
  Alcotest.(check (pair int int)) "h's step fuel-bound and observed" (1, 1)
    (count "h" "fuel_bound", count "h" "observed");
  match List.filter_map (fun (r : Harness.record) -> match r.Harness.outcome with
      | Harness.Rolled_back (Harness.Behaviour_mismatch m) -> Some (r.Harness.routine, m)
      | _ -> None) records with
  | [ ("h", m) ] ->
    Alcotest.(check bool) ("out of fuel: " ^ m) true
      (Helpers.contains_substring ~needle:"out of fuel" m)
  | _ -> Alcotest.fail "h's step must run out of fuel and roll back"

(* Block-end placement is insertion and deletion too: over the kernel
   suite the motion checker proves every [pre-classic] step that changes
   a routine, so the exec tier never reruns one. *)
let test_pre_classic_certified () =
  Metrics.reset ();
  let config = { Harness.default_config with Harness.validation = Harness.Exec } in
  List.iter
    (fun w ->
      let records =
        Harness.supervise config
          ~passes:(Epre.Passes.named "naming,pre-classic,dce")
          (Epre_workloads.Workloads.compile w)
      in
      if Harness.rolled_back records <> [] then
        Alcotest.failf "%s: a step rolled back" w.Epre_workloads.Workloads.name)
    Epre_workloads.Workloads.all;
  let total what =
    List.fold_left
      (fun n (e : Metrics.entry) ->
        if e.Metrics.name = "harness." ^ what ^ ".pre-classic" then n + e.Metrics.value else n)
      0 (Metrics.snapshot ())
  in
  Alcotest.(check (list int)) "certified, fuel_bound, observed" [ 86; 0; 0 ]
    (List.map total [ "certified"; "fuel_bound"; "observed" ])

(* [loop] with an evaluation of [r1 add r2] repeated in its body. *)
let redundant_loop =
  {|routine main() entry B0 regs 6 {
B0:
  r0 = const 0
  r1 = const 1
  r2 = const 100
  jump B1
B1:
  r4 = add r1, r2
  r5 = add r1, r2
  r0 = add r0, r1
  r3 = cmp_lt r0, r2
  cbr r3, B1, B2
B2:
  call emit(r0)
  return r0
}
|}

(* What a step is checked for is read off its [checks]: a pass named
   [pre] or [coalesce] that carries [no_checks] gets no postcondition
   lints, no audit and no certification, where the registry row's checks
   give all three. *)
let test_checks_not_by_name () =
  let registry name = (Option.get (Epre.Passes.find name)).Epre.Pipeline.checks in
  let run ~validation ~checks (np : Harness.named_pass) text =
    Metrics.reset ();
    let config = { Harness.default_config with Harness.validation; audit = true } in
    match Harness.supervise config ~passes:[ { np with Harness.checks } ] (Ir_text.parse_program text) with
    | [ r ] when r.Harness.outcome = Harness.Passed -> r
    | _ -> Alcotest.fail "one passed record expected"
  in
  let keys (r : Harness.record) = List.map fst r.Harness.meta in
  let idle = { Harness.pass_name = "pre"; run = ignore; checks = Harness.no_checks } in
  Alcotest.(check (list string)) "pre's checks: lints and audit" [ "audit_findings"; "audit_rules"; "verify_warnings" ]
    (keys (run ~validation:Harness.Ir ~checks:(registry "pre") idle redundant_loop));
  Alcotest.(check (list string)) "no checks: neither" []
    (keys (run ~validation:Harness.Ir ~checks:Harness.no_checks idle redundant_loop));
  let counts pass =
    List.map
      (fun what -> Metrics.get ~routine:"main" ~name:("harness." ^ what ^ "." ^ pass))
      [ "certified"; "observed" ]
  in
  let coalesce =
    { Harness.pass_name = "coalesce";
      run = (fun r -> Routine.restore r ~from:(routine coalesced));
      checks = Harness.no_checks }
  in
  List.iter
    (fun (np, text) ->
      let name = np.Harness.pass_name in
      ignore (run ~validation:Harness.Exec ~checks:(registry name) np text);
      Alcotest.(check (list int)) (name ^ "'s checks: certified") [ 1; 0 ] (counts name);
      ignore (run ~validation:Harness.Exec ~checks:Harness.no_checks np text);
      Alcotest.(check (list int)) "no checks: observed" [ 0; 1 ] (counts name))
    [ (split_back_edge, loop); (coalesce, with_copies) ];
  Metrics.reset ()

let suite =
  [
    Alcotest.test_case "kernels: accepted steps observe bit-equal" `Slow
      test_kernels_side_by_side;
    Alcotest.test_case "generated programs: accepted steps observe bit-equal" `Slow
      test_generated_side_by_side;
    Alcotest.test_case "motion accepts PRE and DCE steps" `Quick test_motion_accepts;
    Alcotest.test_case "motion declines broken steps" `Quick test_motion_declines;
    Alcotest.test_case "jump chains: clean accepted, retargeting declined" `Quick
      test_jump_chains;
    Alcotest.test_case "a step outgrowing the fuel budget is observed" `Quick
      test_fuel_bound;
    Alcotest.test_case "values accepts constprop, coalesce and GVN steps" `Quick
      test_values_accepts;
    Alcotest.test_case "values declines broken steps" `Quick test_values_declines;
    Alcotest.test_case "values declines peephole's signed-zero identity" `Quick
      test_values_signed_zero;
    Alcotest.test_case "values accepts peephole steps" `Quick test_values_accepts_peephole;
    Alcotest.test_case "values declines broken peephole steps" `Quick
      test_values_declines_peephole;
    Alcotest.test_case "values applies every identity row" `Quick test_rows_applied;
    Alcotest.test_case "values growth charges a block to its only source" `Quick
      test_values_growth;
    Alcotest.test_case "dot: constprop's growth and certification" `Quick test_dot_growth;
    Alcotest.test_case "kernels: the exec tier's observed steps" `Slow test_observed_counts;
    Alcotest.test_case "values: accepted mutants observe bit-equal" `Slow test_mutants;
    commutes_property;
  ]
  @ List.map row_property Certify.identities
  @ [
      Alcotest.test_case "the fuel bound shrinks with a step's growth below 1" `Quick
        test_fuel_bound_shrinks;
      Alcotest.test_case "the fuel bound keeps a callee's fuel apart" `Quick
        test_fuel_bound_per_routine;
      Alcotest.test_case "kernels: motion certifies every pre-classic step" `Slow
        test_pre_classic_certified;
      Alcotest.test_case "a step's checks come from its record, not its name" `Quick
        test_checks_not_by_name;
    ]
