(** Tests for [Epre_verify]: a negative corpus with one deliberately
    ill-formed routine per rule id (every V/T/L rule in the catalog must
    be triggerable, and the coverage test pins the two lists together),
    clean-bill assertions for every workload at every optimization level,
    and the plumbing that carries rule ids outward — harness rollback
    meta ([verify_rule]) and fuzz verdicts ([failure.rule] / [fuzz_rule]). *)

open Epre_ir
module Verify = Epre_verify.Verify
module Analyze = Epre_verify.Analyze
module Diag = Epre_verify.Diag
module Rules = Epre_verify.Rules
module Harness = Epre_harness.Harness
module Fuzz = Epre_fuzz

let parse text = Ir_text.parse_program ~validate:false text

(* The textual format has no SSA marker; tests that need a routine in SSA
   form (phi rules, [Ssa_check], rank lints) set the flag by hand. *)
let with_ssa name prog =
  (Program.find_exn prog name).Routine.in_ssa <- true;
  prog

let rules_of diags = List.map (fun d -> d.Diag.rule) diags

let show diags =
  if diags = [] then "<no diagnostics>" else Verify.render diags

(* ------------------------------------------------------------------ *)
(* Negative corpus: one snippet per rule id.                           *)

(* One program per lint rule, built to trip it (flagged as SSA where the
   rule needs SSA). The negative corpus checks each with every lint on;
   the [check_only] property below runs on them too, so every lint id
   fires somewhere in its corpus. *)
let lint_negatives : (string * (unit -> Program.t)) list =
  [
    ( "L001",
      fun () ->
        (* B0 -> B2 leaves a multi-successor block and enters a
           multi-predecessor block: a critical edge. *)
        parse
          {|
routine f(r0) entry B0 regs 1 {
B0:
  cbr r0, B1, B2
B1:
  jump B2
B2:
  return r0
}
|} );
    ( "L002",
      fun () ->
        parse
          {|
routine f(r0) entry B0 regs 2 {
B0:
  r1 = add r0, r0
  return r0
}
|} );
    ( "L003",
      fun () ->
        parse
          {|
routine f(r0) entry B0 regs 2 {
B0:
  r1 = copy r0
  return r0
}
|} );
    ( "L004",
      fun () ->
        parse
          {|
routine f() entry B0 regs 1 {
B0:
  r0 = const 0
  jump B1
B1:
  jump B2
B2:
  return r0
}
|} );
    ( "L005",
      fun () ->
        (* Both phi arguments are the same register. *)
        with_ssa "f"
          (parse
             {|
routine f(r0) entry B0 regs 3 {
B0:
  r1 = const 1
  cbr r0, B1, B2
B1:
  jump B3
B2:
  jump B3
B3:
  r2 = phi(B1: r1, B2: r1)
  return r2
}
|}) );
    ( "L006",
      fun () ->
        (* A genuine join whose result is never read. *)
        with_ssa "f"
          (parse
             {|
routine f(r0) entry B0 regs 4 {
B0:
  cbr r0, B1, B2
B1:
  r1 = const 1
  jump B3
B2:
  r2 = const 2
  jump B3
B3:
  r3 = phi(B1: r1, B2: r2)
  return r0
}
|}) );
    ( "L007",
      fun () ->
        (* Operands out of rank order: the parameter (rank of the entry
           block) before the constant (rank 0). *)
        with_ssa "f"
          (parse
             {|
routine f(r0) entry B0 regs 3 {
B0:
  r1 = const 2
  r2 = add r0, r1
  return r2
}
|}) );
  ]

(* Each entry: (rule id, thunk producing the full diagnostic list for a
   program built to violate exactly that rule — incidental co-diagnostics
   are fine, absence of the named rule is the failure). *)
let negatives : (string * (unit -> Diag.t list)) list =
  let check ?(lints = false) prog =
    let config = if lints then Verify.lint_config else Verify.default in
    Verify.check_program ~config prog
  in
  (* Audit negatives: run the redundancy auditor over routine [f],
     optionally against a baseline text (the "before" of the
     transformation under audit). *)
  let audit ?expect_pre ?baseline text =
    let baseline =
      Option.map (fun b -> Program.find_exn (parse b) "f") baseline
    in
    match
      Analyze.check_routine ?expect_pre ?baseline
        (Program.find_exn (parse text) "f")
    with
    | Some (_, diags) -> diags
    | None -> []
  in
  [
    ( "V001",
      fun () ->
        (* No textual spelling for a blockless routine: the parser needs at
           least one block. Built directly — entry 0 of an empty CFG. *)
        let cfg = Cfg.create () in
        let r = Routine.create ~name:"f" ~params:[] ~cfg ~next_reg:0 in
        check (Program.create [ r ]) );
    ( "V002",
      fun () ->
        check
          (parse {|
routine f() entry B0 regs 1 {
B0:
  jump B7
}
|}) );
    ( "V003",
      fun () ->
        check
          (parse
             {|
routine f() entry B0 regs 1 {
B0:
  r0 = add r0, r5
  return r0
}
|})
    );
    ( "V004",
      fun () ->
        check
          (parse
             {|
routine f(r0) entry B0 regs 3 {
B0:
  r1 = const 1
  r2 = phi(B0: r0)
  return r1
}
|})
    );
    ( "V005",
      fun () ->
        (* Entry has no predecessors; the phi names one. *)
        check
          (parse
             {|
routine f(r0) entry B0 regs 2 {
B0:
  r1 = phi(B0: r0)
  return r1
}
|})
    );
    ( "V006",
      fun () ->
        (* A well-placed, well-predicated phi in a routine that is not in
           SSA form. *)
        check
          (parse
             {|
routine f(r0) entry B0 regs 4 {
B0:
  cbr r0, B1, B2
B1:
  r1 = const 1
  jump B3
B2:
  r2 = const 2
  jump B3
B3:
  r3 = phi(B1: r1, B2: r2)
  return r3
}
|})
    );
    ( "V007",
      fun () ->
        (* Two definitions of r2 with the SSA flag set. *)
        check
          (with_ssa "f"
             (parse
                {|
routine f(r0, r1) entry B0 regs 3 {
B0:
  r2 = add r0, r1
  r2 = mul r0, r1
  return r2
}
|}))
    );
    ( "V008",
      fun () ->
        (* r1 is defined on one arm of the diamond only. *)
        check
          (parse
             {|
routine f(r0) entry B0 regs 2 {
B0:
  cbr r0, B1, B2
B1:
  r1 = const 1
  jump B3
B2:
  jump B3
B3:
  return r1
}
|})
    );
    ( "V009",
      fun () ->
        check
          (parse
             {|
routine f() entry B0 regs 1 {
B0:
  r0 = const 0
  return r0
B1:
  jump B0
}
|})
    );
    ( "V010",
      fun () ->
        check (parse {|
routine f() entry B0 regs 1 {
B0:
  jump B0
}
|}) );
    ( "T001",
      fun () ->
        check
          (parse
             {|
routine f() entry B0 regs 2 {
B0:
  r0 = const 1.5
  r1 = add r0, r0
  return r1
}
|})
    );
    ( "T002",
      fun () ->
        check
          (parse
             {|
routine f() entry B0 regs 2 {
B0:
  r0 = const 2.5
  r1 = not r0
  return r1
}
|})
    );
    ( "T003",
      fun () ->
        check
          (parse
             {|
routine f() entry B0 regs 2 {
B0:
  r0 = const 1.5
  r1 = load r0
  return r1
}
|})
    );
    ( "T004",
      fun () ->
        check
          (parse
             {|
routine f() entry B0 regs 1 {
B0:
  r0 = const 1.5
  cbr r0, B1, B2
B1:
  return
B2:
  return
}
|})
    );
    ( "T005",
      fun () ->
        (* Int on one arm, float on the other, joined by the phi. *)
        check
          (with_ssa "f"
             (parse
                {|
routine f(r0) entry B0 regs 4 {
B0:
  cbr r0, B1, B2
B1:
  r1 = const 1
  jump B3
B2:
  r2 = const 2.5
  jump B3
B3:
  r3 = phi(B1: r1, B2: r2)
  return r3
}
|}))
    );
    ( "T006",
      fun () ->
        check
          (parse
             {|
routine f() entry B0 regs 1 {
B0:
  r0 = const 1
  r0 = const 2.5
  return r0
}
|})
    );
    ( "T007",
      fun () ->
        check
          (parse
             {|
routine g(r0) entry B0 regs 1 {
B0:
  return r0
}
routine f() entry B0 regs 1 {
B0:
  r0 = call g()
  return r0
}
|})
    );
    ( "T008",
      fun () ->
        check
          (parse
             {|
routine f() entry B0 regs 1 {
B0:
  r0 = call nosuch()
  return r0
}
|})
    );
    ( "T009",
      fun () ->
        (* g's body pins its parameter to int; f passes a float. *)
        check
          (parse
             {|
routine g(r0) entry B0 regs 2 {
B0:
  r1 = add r0, r0
  return r1
}
routine f() entry B0 regs 2 {
B0:
  r0 = const 1.5
  r1 = call g(r0)
  return r1
}
|})
    );
    ( "T010",
      fun () ->
        check
          (parse
             {|
routine g() entry B0 regs 1 {
B0:
  return
}
routine f() entry B0 regs 1 {
B0:
  r0 = call g()
  return r0
}
|})
    );
    ( "T011",
      fun () ->
        check
          (parse
             {|
routine g(r0) entry B0 regs 1 {
B0:
  cbr r0, B1, B2
B1:
  return r0
B2:
  return
}
|})
    );
    ( "T012",
      fun () ->
        (* Int-initialised allocation, float stored into it. *)
        check
          (parse
             {|
routine f() entry B0 regs 2 {
B0:
  r0 = alloca 4, 0
  r1 = const 1.5
  store r0, r1
  return
}
|})
    );
  ]
  @ List.map (fun (rule, prog) -> (rule, fun () -> check ~lints:true (prog ()))) lint_negatives
  @ [
    ( "A001",
      fun () ->
        (* The expression is re-evaluated into its canonical name while
           still available — a deletion CSE/PRE at ≥ the partial level
           must not leave behind. *)
        audit ~expect_pre:true
          {|
routine f(r0, r1) entry B0 regs 4 {
B0:
  r2 = add r0, r1
  r3 = mul r2, r0
  r2 = add r0, r1
  return r2
}
|}
    );
    ( "A002",
      fun () ->
        (* The diamond's join re-evaluates what one arm already computed;
           a safe placement on the other arm's edge would cover it. *)
        audit ~expect_pre:true
          {|
routine f(r0, r1) entry B0 regs 4 {
B0:
  cbr r0, B1, B2
B1:
  r2 = add r0, r1
  jump B3
B2:
  jump B3
B3:
  r2 = add r0, r1
  return r2
}
|}
    );
    ( "A003",
      fun () ->
        (* "Code motion" hoisted the evaluation above the branch; the B2
           path never needs it — not down-safe. *)
        audit
          ~baseline:
            {|
routine f(r0, r1) entry B0 regs 4 {
B0:
  cbr r0, B1, B2
B1:
  r2 = add r0, r1
  return r2
B2:
  return r0
}
|}
          {|
routine f(r0, r1) entry B0 regs 4 {
B0:
  r2 = add r0, r1
  cbr r0, B1, B2
B1:
  return r2
B2:
  return r0
}
|}
    );
    ( "A004",
      fun () ->
        (* The only path now evaluates add(r0, r1) twice. *)
        audit
          ~baseline:
            {|
routine f(r0, r1) entry B0 regs 3 {
B0:
  r2 = add r0, r1
  return r2
}
|}
          {|
routine f(r0, r1) entry B0 regs 4 {
B0:
  r2 = add r0, r1
  r3 = add r0, r1
  return r3
}
|}
    );
    ( "A005",
      fun () ->
        (* Three temporaries overlap where the baseline chained them:
           peak pressure 3 against 2. *)
        audit
          ~baseline:
            {|
routine f(r0) entry B0 regs 4 {
B0:
  r1 = add r0, r0
  r2 = mul r1, r1
  r3 = add r2, r0
  return r3
}
|}
          {|
routine f(r0) entry B0 regs 7 {
B0:
  r1 = add r0, r0
  r2 = mul r0, r0
  r3 = sub r0, r0
  r5 = add r1, r2
  r6 = add r5, r3
  return r6
}
|}
    );
    ( "A006",
      fun () ->
        (* The temporary stays live across the whole 8-block chain. *)
        audit
          {|
routine f(r0) entry B0 regs 2 {
B0:
  r1 = add r0, r0
  jump B1
B1:
  jump B2
B2:
  jump B3
B3:
  jump B4
B4:
  jump B5
B5:
  jump B6
B6:
  jump B7
B7:
  jump B8
B8:
  return r1
}
|}
    );
    ( "A007",
      fun () ->
        (* r3 recomputes the value of B0:0, a congruent evaluation
           (by the AWZ partition of the SSA form) that dominates it. *)
        audit
          {|
routine f(r0, r1) entry B0 regs 5 {
B0:
  r2 = add r0, r1
  r3 = add r0, r1
  r4 = mul r2, r3
  return r4
}
|}
    );
  ]

let test_negative rule thunk () =
  let diags = thunk () in
  if not (List.mem rule (rules_of diags)) then
    Alcotest.failf "expected %s to fire; got:\n%s" rule (show diags)

(* Every rule in the catalog is exercised above, and every id above is a
   registered rule — the two lists are pinned to each other so a new rule
   cannot land without a negative test. *)
let test_catalog_coverage () =
  let catalog = List.sort compare (List.map (fun r -> r.Rules.id) Rules.all) in
  let covered = List.sort compare (List.map fst negatives) in
  Alcotest.(check (list string)) "one negative test per catalog rule" catalog covered

let test_severities_match_catalog () =
  List.iter
    (fun (rule, thunk) ->
      let expect =
        match Rules.find rule with
        | Some r -> r.Rules.severity
        | None -> Alcotest.failf "%s not in catalog" rule
      in
      List.iter
        (fun d ->
          if d.Diag.rule = rule && d.Diag.severity <> expect then
            Alcotest.failf "%s: severity %s, catalog says %s" rule
              (Diag.severity_to_string d.Diag.severity)
              (Diag.severity_to_string expect))
        (thunk ()))
    negatives

(* ------------------------------------------------------------------ *)
(* Clean bills: the verifier accepts what the compiler produces.       *)

let test_workloads_clean_all_levels () =
  List.iter
    (fun (w : Epre_workloads.Workloads.t) ->
      let unopt = Epre_workloads.Workloads.compile w in
      (match Verify.errors (Verify.check_program unopt) with
      | [] -> ()
      | errs ->
        Alcotest.failf "%s unoptimized:\n%s" w.Epre_workloads.Workloads.name
          (Verify.render errs));
      List.iter
        (fun level ->
          let opt, _ = Epre.Pipeline.optimized_copy ~level unopt in
          match Verify.errors (Verify.check_program opt) with
          | [] -> ()
          | errs ->
            Alcotest.failf "%s at %s:\n%s" w.Epre_workloads.Workloads.name
              (Epre.Pipeline.level_to_string level)
              (Verify.render errs))
        Epre.Pipeline.all_levels)
    Epre_workloads.Workloads.all

(* ------------------------------------------------------------------ *)
(* Rule-id plumbing: harness rollback meta and fuzz verdicts.          *)

(* A pass that wires the entry terminator to a missing block — the
   verifier's V002, deterministically, in every routine it touches. *)
let breaker =
  {
    Harness.pass_name = "test:break-term";
    run =
      (fun r ->
        (Cfg.block r.Routine.cfg (Cfg.entry r.Routine.cfg)).Block.term <-
          Instr.Jump 99);
    checks = Harness.no_checks;
  }

let test_harness_records_verify_rule () =
  let prog = Helpers.compile "fn main(): int { return 42; }" in
  let records =
    Harness.supervise
      { Harness.default_config with Harness.validation = Harness.Ir }
      ~passes:[ breaker ] prog
  in
  match records with
  | [ ({ Harness.outcome = Harness.Rolled_back (Harness.Ir_violation m); _ } as r) ] ->
    Alcotest.(check bool) "message names the rule" true
      (Helpers.contains_substring ~needle:"V002" m);
    (match List.assoc_opt "verify_rule" r.Harness.meta with
    | Some (Epre_telemetry.Tjson.Str id) ->
      Alcotest.(check string) "verify_rule meta" "V002" id
    | _ -> Alcotest.fail "verify_rule missing from rollback meta")
  | _ -> Alcotest.fail "expected exactly one IR-violation rollback"

let test_oracle_carries_rule () =
  let prog = Helpers.compile "fn main(): int { return 42; }" in
  let cfg =
    { Fuzz.Oracle.default_config with
      Fuzz.Oracle.levels = [ Epre.Pipeline.Partial ];
      chaos = Some (0, breaker);
      chaos_name = Some "test:break-term";
      fuel = 1_000_000 }
  in
  match Fuzz.Oracle.check cfg prog with
  | [] -> Alcotest.fail "chaos fault not detected"
  | f :: _ ->
    Alcotest.(check string) "class" "ir-violation"
      (Fuzz.Oracle.class_to_string f.Fuzz.Oracle.cls);
    (match f.Fuzz.Oracle.rule with
    | Some id -> Alcotest.(check string) "failure.rule" "V002" id
    | None -> Alcotest.fail "Ir_violation failure lost its rule id");
    let record = Fuzz.Oracle.failure_record ~seed:7 ~chaos:"test:break-term" f in
    (match List.assoc_opt "fuzz_rule" record.Harness.meta with
    | Some (Epre_telemetry.Tjson.Str id) ->
      Alcotest.(check string) "fuzz_rule meta" "V002" id
    | _ -> Alcotest.fail "fuzz_rule missing from failure record meta")

(* ------------------------------------------------------------------ *)
(* Post-pass lint registry.                                            *)

(* A registry row's postcondition lints are the [post] field of its
   checks: each id names a lint, none twice, and a pass with no row
   (chaos faults included) names none. *)
let test_postconditions_registered () =
  List.iter
    (fun (p : Epre.Pipeline.entry) ->
      let rules = p.checks.Harness.post in
      Alcotest.(check int) (p.name ^ " lists each lint once")
        (List.length rules)
        (List.length (List.sort_uniq String.compare rules));
      List.iter
        (fun r ->
          Alcotest.(check bool) (p.name ^ ": " ^ r ^ " is a lint") true
            (List.mem r Rules.lint_ids))
        rules)
    Epre.Passes.all;
  Alcotest.(check bool) "some pass has a postcondition" true
    (List.exists (fun (p : Epre.Pipeline.entry) -> p.checks.post <> []) Epre.Passes.all);
  Alcotest.(check (list string)) "chaos faults have none" []
    (List.concat_map
       (fun (p : Epre.Pipeline.entry) -> p.checks.post)
       (List.filter Epre.Passes.is_chaos Epre.Passes.all));
  Alcotest.(check bool) "unregistered pass has no row" true
    (Option.is_none (Epre.Passes.find "no-such-pass"))

(* Type inference reads a parameter outside the register range like any
   other: [g]'s use of r7 is V003 in [g], and still pins the contract
   [f]'s call is checked against. *)
let test_out_of_range_parameter_refines_signature () =
  let diags =
    Verify.check_program
      (parse
         {|
routine g(r7) entry B0 regs 2 {
B0:
  r1 = add r7, r7
  return r1
}
routine f() entry B0 regs 2 {
B0:
  r0 = const 1.5
  r1 = call g(r0)
  return r1
}
|})
  in
  Alcotest.(check (list string)) "rules" [ "T009"; "V003" ]
    (List.sort_uniq compare (rules_of diags))

(* [Lints.check_only ids] runs only the lint families covering [ids];
   it must agree exactly with filtering the full [Lints.check], for every
   postcondition id set, each single id, all of them, and none. *)
let lint_id_sets =
  ([] :: Rules.lint_ids :: List.map (fun id -> [ id ]) Rules.lint_ids)
  @ List.sort_uniq compare
      (List.map (fun (p : Epre.Pipeline.entry) -> p.checks.Harness.post) Epre.Passes.all)

let check_only_agrees ~fired ~what (r : Routine.t) =
  let all = Epre_verify.Lints.check r in
  List.iter (fun (d : Diag.t) -> Hashtbl.replace fired d.Diag.rule ()) all;
  List.iter
    (fun ids ->
      let want = List.filter (fun (d : Diag.t) -> List.mem d.Diag.rule ids) all in
      let got = Epre_verify.Lints.check_only ids r in
      if got <> want then
        Alcotest.failf "%s [%s]: check_only gave\n%s\nfiltered check gave\n%s" what
          (String.concat "," ids) (show got) (show want))
    lint_id_sets

(* Each routine out of SSA as given, then in SSA (on a copy; a routine
   the builder rejects is only checked out of SSA). *)
let check_only_agrees_in_and_out ~fired ~what (p : Program.t) =
  List.iter
    (fun (r : Routine.t) ->
      let what = what ^ "/" ^ r.Routine.name in
      check_only_agrees ~fired ~what r;
      let ssa = Routine.copy r in
      match Epre_ssa.Ssa.build ssa with
      | _ -> check_only_agrees ~fired ~what:(what ^ " (ssa)") ssa
      | exception _ -> ())
    (Program.routines p)

let test_check_only_is_filtered_check () =
  Alcotest.(check (list string)) "lint ids" [ "L001"; "L002"; "L003"; "L004"; "L005"; "L006"; "L007" ]
    Rules.lint_ids;
  let fired = Hashtbl.create 8 in
  let check_only_agrees_in_and_out = check_only_agrees_in_and_out ~fired in
  List.iter
    (fun (rule, prog) -> check_only_agrees_in_and_out ~what:("negative " ^ rule) (prog ()))
    lint_negatives;
  List.iter
    (fun w ->
      let unopt = Epre_workloads.Workloads.compile w in
      let name = w.Epre_workloads.Workloads.name in
      check_only_agrees_in_and_out ~what:name unopt;
      List.iter
        (fun level ->
          let opt, _ = Epre.Pipeline.optimized_copy ~level unopt in
          check_only_agrees_in_and_out
            ~what:(name ^ " " ^ Epre.Pipeline.level_to_string level)
            opt)
        Epre.Pipeline.all_levels)
    Epre_workloads.Workloads.all;
  for seed = 1 to 120 do
    let prog = Epre_frontend.Frontend.compile_string (Fuzz.Gen.source seed) in
    check_only_agrees_in_and_out ~what:(Printf.sprintf "gen %d" seed) prog
  done;
  Alcotest.(check (list string)) "every lint fired somewhere" Rules.lint_ids
    (List.filter (Hashtbl.mem fired) Rules.lint_ids)

let suite =
  List.map
    (fun (rule, thunk) ->
      Alcotest.test_case ("negative " ^ rule) `Quick (test_negative rule thunk))
    negatives
  @ [
      Alcotest.test_case "catalog coverage" `Quick test_catalog_coverage;
      Alcotest.test_case "severities match catalog" `Quick
        test_severities_match_catalog;
      Alcotest.test_case "workloads clean at every level" `Quick
        test_workloads_clean_all_levels;
      Alcotest.test_case "harness meta carries verify_rule" `Quick
        test_harness_records_verify_rule;
      Alcotest.test_case "oracle verdicts carry the rule id" `Quick
        test_oracle_carries_rule;
      Alcotest.test_case "postcondition registry is well-formed" `Quick
        test_postconditions_registered;
      Alcotest.test_case "out-of-range parameter refines its signature" `Quick
        test_out_of_range_parameter_refines_signature;
      Alcotest.test_case "check_only equals filtered check" `Slow
        test_check_only_is_filtered_check;
    ]
