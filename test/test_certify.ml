(** The exec tier's step checkers ([Epre_verify.Certify]).

    Side by side: over every kernel at every level, and over generated
    programs, each step a checker accepts is run anyway, and its fresh
    observation must be bit-equal to the one before the step — the
    observation the harness keeps instead. Then one hand-made step per
    rule, each broken the way a faulty pass would break it, must be
    declined, and the harness must not certify a step whose growth
    would outrun a small interpreter budget. *)

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

(* Run [level] pass-major over [prog] as the harness does, observing
   after every step that changes a routine. Returns how many steps each
   checker accepted; fails on an accepted step whose observation moved. *)
let side_by_side ~what ~level prog accepted =
  let current = ref (Harness.observe ~fuel prog) in
  List.iter
    (fun (np : Harness.named_pass) ->
      List.iter
        (fun (r : Routine.t) ->
          let snapshot = Routine.copy r in
          np.Harness.run r;
          if not (Routine.equal r snapshot) then begin
            let verdict =
              match (!current, Certify.find np.Harness.pass_name) with
              | Ok _, Some check -> check ~before:snapshot ~after:r
              | _ -> None
            in
            let fresh = Harness.observe ~fuel prog in
            if verdict <> None then begin
              Hashtbl.replace accepted np.Harness.pass_name
                (1 + Option.value ~default:0 (Hashtbl.find_opt accepted np.Harness.pass_name));
              if not (bit_equal !current fresh) then
                Alcotest.failf "%s: %s on %s accepted, but observed %s, was %s" what
                  np.Harness.pass_name r.Routine.name (Harness.describe_obs fresh)
                  (Harness.describe_obs !current)
            end;
            current := fresh
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
    [ "pre"; "dce"; "clean" ]

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

(* A diamond whose join recomputes what the B1 arm computed. Each block
   is given as its instruction lines. *)
let diamond ?(b0 = []) ~b1 ~b2 ~b3 ?(cbr = "cbr r2, B1, B2") () =
  let block label lines term =
    let body = String.concat "" (List.map (fun l -> "  " ^ l ^ "\n") lines) in
    Printf.sprintf "%s:\n%s  %s\n" label body term
  in
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
    add_before

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
  let div = "r3 = div r0, r1" in
  declines Certify.motion ~what:"an int div inserted"
    (diamond ~b1:[ div ] ~b2:[] ~b3:(div :: use) ())
    (diamond ~b1:[ div ] ~b2:[ div ] ~b3:use ());
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

(* A counted loop, and a step named [pre] that splits its back edge:
   each iteration now also runs the landing block's jump. The motion
   checker proves the step, with a growth of 4/3; under a budget that
   fits the loop exactly the harness must not certify it, and the rerun
   runs out of fuel and rolls the step back. Under the default budget
   the same step is certified. *)
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
    run = (fun r -> ignore (Cfg.split_edge r.Routine.cfg ~from_:1 ~to_:1)) }

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
    ( List.map (fun (r : Harness.record) -> r.Harness.outcome) records,
      Metrics.get ~routine:"main" ~name:"harness.certified.pre",
      Metrics.get ~routine:"main" ~name:"harness.observed.pre" )
  in
  let exact =
    match Harness.observe_counted ~fuel (Ir_text.parse_program loop) with
    | Ok _, Some n -> n
    | _ -> Alcotest.fail "the loop runs"
  in
  (match run ~fuel:exact with
  | [ Harness.Rolled_back (Harness.Behaviour_mismatch m) ], 0, 1 ->
    Alcotest.(check bool) ("out of fuel: " ^ m) true
      (Helpers.contains_substring ~needle:"out of fuel" m)
  | _ -> Alcotest.fail "a step outgrowing the budget must be observed and rolled back");
  match run ~fuel with
  | [ Harness.Passed ], 1, 0 -> ()
  | _ -> Alcotest.fail "under the default budget the step is certified"

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
  ]
