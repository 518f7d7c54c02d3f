(** Tests for the redundancy-auditor stack: site classification and
    down-safety in [Epre_analysis.Audit], the [Pressure] and [Valnum]
    estimators, the shared [Expr_flow] systems the auditor reads (and
    their agreement with the PRE engine), and the outward plumbing —
    [Epre_verify.Analyze] postconditions, harness audit meta and the
    [analyze.*] telemetry counters. The per-rule negative corpus lives
    in [Test_verify]; this file covers the measurement layer. *)

open Epre_ir
open Epre_util
module Audit = Epre_analysis.Audit
module Pressure = Epre_analysis.Pressure
module Dataflow = Epre_analysis.Dataflow
module Liveness = Epre_analysis.Liveness
module Valnum = Epre_analysis.Valnum
module Expr_flow = Epre_analysis.Expr_flow
module Analyze = Epre_verify.Analyze
module Verify = Epre_verify.Verify
module Harness = Epre_harness.Harness
module Metrics = Epre_telemetry.Metrics
module Tjson = Epre_telemetry.Tjson
module Workloads = Epre_workloads.Workloads

let parse text = Ir_text.parse_program ~validate:true text

let routine text = Program.find_exn (parse text) "f"

(* ------------------------------------------------------------------ *)
(* Site classification                                                  *)

let cls_at (report : Audit.report) ~block ~index =
  match
    List.find_opt
      (fun (s : Audit.site) -> s.block = block && s.index = index)
      report.Audit.sites
  with
  | Some s -> s
  | None -> Alcotest.failf "no evaluation site at B%d:%d" block index

let check_cls what want (s : Audit.site) =
  Alcotest.(check string)
    what
    (Audit.classification_to_string want)
    (Audit.classification_to_string s.cls)

(* Straight-line re-evaluation into the canonical name: the second
   [add] is fully redundant, the first is clean. *)
let test_classify_full () =
  let report =
    Audit.run
      (routine
         {|
routine f(r0, r1) entry B0 regs 4 {
B0:
  r2 = add r0, r1
  r3 = mul r2, r0
  r2 = add r0, r1
  return r2
}
|})
  in
  check_cls "first evaluation" Audit.Clean (cls_at report ~block:0 ~index:0);
  check_cls "re-evaluation" Audit.Full (cls_at report ~block:0 ~index:2)

(* Diamond: the join re-evaluates what only one arm computed —
   partially, not fully, available. *)
let test_classify_partial () =
  let report =
    Audit.run
      (routine
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
|})
  in
  check_cls "join evaluation" Audit.Partial (cls_at report ~block:3 ~index:0)

(* A non-canonical recomputation is value-redundant: the congruent
   register [r2] definitely holds the value at the site. *)
let test_classify_value () =
  let report =
    Audit.run
      (routine
         {|
routine f(r0, r1) entry B0 regs 5 {
B0:
  r2 = add r0, r1
  r3 = add r0, r1
  r4 = mul r2, r3
  return r4
}
|})
  in
  let s = cls_at report ~block:0 ~index:1 in
  check_cls "recomputation" Audit.Value s;
  Alcotest.(check (list int)) "congruent holder" [ 2 ] s.Audit.value_regs

(* Down-safety: hoisted above the branch, the evaluation is wasted on
   the fall-through path; kept under the branch it is not. *)
let test_speculative () =
  let hoisted =
    Audit.run
      (routine
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
|})
  in
  let sunk =
    Audit.run
      (routine
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
|})
  in
  Alcotest.(check bool)
    "hoisted evaluation is speculative" true
    (cls_at hoisted ~block:0 ~index:0).Audit.speculative;
  Alcotest.(check int) "speculative count" 1 hoisted.Audit.speculative_count;
  Alcotest.(check bool)
    "guarded evaluation is down-safe" false
    (cls_at sunk ~block:1 ~index:0).Audit.speculative;
  Alcotest.(check int) "no speculation when guarded" 0 sunk.Audit.speculative_count

(* The residual score counts exactly the Full and Partial sites. *)
let test_residual () =
  let clean =
    Audit.run
      (routine
         {|
routine f(r0, r1) entry B0 regs 3 {
B0:
  r2 = add r0, r1
  return r2
}
|})
  in
  Alcotest.(check int) "clean routine" 0 (Audit.residual clean);
  let redundant =
    Audit.run
      (routine
         {|
routine f(r0, r1) entry B0 regs 4 {
B0:
  r2 = add r0, r1
  r3 = mul r2, r0
  r2 = add r0, r1
  return r2
}
|})
  in
  Alcotest.(check int) "one full site left" 1 (Audit.residual redundant)

(* ------------------------------------------------------------------ *)
(* Pressure                                                             *)

let pressure (r : Routine.t) =
  let g = Dataflow.graph r.Routine.cfg in
  Pressure.compute g (Liveness.compute g r) r

let test_pressure () =
  (* Chained: each temporary dies feeding the next — peak 2. *)
  let chained =
    pressure
      (routine
         {|
routine f(r0) entry B0 regs 4 {
B0:
  r1 = add r0, r0
  r2 = mul r1, r1
  r3 = add r2, r0
  return r3
}
|})
  in
  Alcotest.(check int) "chained peak" 2 (Pressure.max_pressure chained);
  Alcotest.(check int) "block 0 peak" 2 (Pressure.block_pressure chained 0);
  (* Overlapping: r1, r2, r3 all live across the third definition. *)
  let overlapped =
    pressure
      (routine
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
|})
  in
  Alcotest.(check int) "overlapping peak" 3 (Pressure.max_pressure overlapped);
  Alcotest.(check (list (pair int int)))
    "per-block listing" [ (0, 3) ] (Pressure.per_block overlapped)

(* ------------------------------------------------------------------ *)
(* Value numbering                                                      *)

let test_valnum_congruence () =
  let r =
    routine
      {|
routine f(r0, r1) entry B0 regs 5 {
B0:
  r2 = add r0, r1
  r3 = add r0, r1
  r4 = mul r2, r2
  return r4
}
|}
  in
  let vn = Valnum.compute r in
  Alcotest.(check bool) "parameter is stable" true (Valnum.stable vn 0);
  Alcotest.(check bool) "single pure def is stable" true (Valnum.stable vn 2);
  Alcotest.(check bool) "congruent evaluations" true (Valnum.same_class vn 2 3);
  Alcotest.(check bool)
    "different expressions differ" false (Valnum.same_class vn 2 4)

let test_valnum_loop_carried () =
  (* r2's only definition reads r2 — the cycle makes its value
     iteration-dependent, so it must not be called stable. *)
  let r =
    routine
      {|
routine f(r0) entry B0 regs 3 {
B0:
  r2 = const 0
  jump B1
B1:
  r2 = add r2, r0
  cbr r2, B1, B2
B2:
  return r2
}
|}
  in
  let vn = Valnum.compute r in
  Alcotest.(check bool) "loop-carried register" false (Valnum.stable vn 2)

(* ------------------------------------------------------------------ *)
(* Expr_flow invariants                                                 *)

(* Availability implies partial availability, block by block, on every
   workload routine: ∩ over paths can never see more than ∪. *)
let test_pav_superset_of_av () =
  List.iter
    (fun w ->
      let prog = Workloads.compile w in
      List.iter
        (fun (r : Routine.t) ->
          let fl = Expr_flow.build r in
          let avail = Expr_flow.availability fl in
          let pav = Expr_flow.partial_availability fl in
          Array.iteri
            (fun id av_in ->
              List.iter
                (fun e ->
                  if not (Bitset.mem pav.Epre_analysis.Dataflow.ins.(id) e)
                  then
                    Alcotest.failf "%s/%s B%d: avail bit %d not in pav"
                      w.Workloads.name r.Routine.name id e)
                (Bitset.elements av_in))
            avail.Epre_analysis.Dataflow.ins)
        (Program.routines prog))
    Workloads.all

(* The auditor judges A002 by the engine's own equations, so after the
   engine runs to fixpoint the delete set must be empty — on the
   diamond and on every workload routine at the partial level. *)
let test_lcm_delete_empty_after_pre () =
  let check_routine what (r : Routine.t) =
    let fl = Expr_flow.build r in
    Array.iteri
      (fun id del ->
        if not (Bitset.is_empty del) then
          Alcotest.failf "%s B%d: non-empty LCM delete set after PRE" what id)
      (Expr_flow.lcm_delete fl)
  in
  let r =
    routine
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
  in
  (* Before: the join's evaluation is in DELETE — exactly the A002 bait. *)
  let before = Expr_flow.lcm_delete (Expr_flow.build r) in
  Alcotest.(check bool)
    "join evaluation deletable before PRE" false
    (Bitset.is_empty before.(3));
  ignore (Epre_opt.Naming.run r);
  ignore (Epre_pre.Pre.run r);
  Routine.validate r;
  check_routine "diamond" r

(* ------------------------------------------------------------------ *)
(* Plumbing: postconditions, harness meta, telemetry                    *)

let test_audit_postconditions () =
  Alcotest.(check (option bool)) "pre is audited, expects no residue"
    (Some true) (Analyze.audited_pass "pre");
  Alcotest.(check (option bool)) "gvn is audited, enabling only"
    (Some false) (Analyze.audited_pass "gvn");
  Alcotest.(check (option bool)) "unknown pass" None
    (Analyze.audited_pass "no-such-pass");
  let names = List.map fst Analyze.audit_postconditions in
  Alcotest.(check int) "no duplicate pass names"
    (List.length names)
    (List.length (List.sort_uniq String.compare names));
  (* A level stage answers every per-pass fact table as the registry pass
     it runs does, so --audit, lint postconditions and certification see
     the levels' stages exactly as the same passes under --passes. *)
  List.iter
    (fun level ->
      List.iter2
        (fun label name ->
          let what =
            Printf.sprintf "%s: stage %s runs %s"
              (Epre.Pipeline.level_to_string level) label name
          in
          Alcotest.(check (list string)) (what ^ ", postconditions")
            (Verify.postconditions name) (Verify.postconditions label);
          Alcotest.(check (option bool)) (what ^ ", audited")
            (Analyze.audited_pass name) (Analyze.audited_pass label);
          Alcotest.(check bool) (what ^ ", certified by the same checker") true
            (match (Epre_verify.Certify.find name, Epre_verify.Certify.find label) with
            | Some a, Some b -> a == b
            | None, None -> true
            | _ -> false))
        (Epre.Pipeline.level_stages ~level)
        (Epre.Pipeline.level_spelling ~level))
    Epre.Pipeline.all_levels

(* A no-op pass named "pre" leaves the planted full redundancy behind:
   the harness must record the finding in meta and must not roll back. *)
let test_harness_audit_meta () =
  let prog =
    parse
      {|
routine f(r0, r1) entry B0 regs 4 {
B0:
  r2 = add r0, r1
  r3 = mul r2, r0
  r2 = add r0, r1
  return r2
}
|}
  in
  let config = { Harness.default_config with audit = true } in
  let records =
    Harness.supervise config
      ~passes:[ { Harness.pass_name = "pre"; run = (fun _ -> ()) } ]
      prog
  in
  match records with
  | [ record ] ->
    Alcotest.(check string) "outcome" "passed"
      (match record.Harness.outcome with
      | Harness.Passed -> "passed"
      | Harness.Rolled_back r -> Harness.reason_to_string r);
    let findings =
      match List.assoc_opt "audit_findings" record.Harness.meta with
      | Some (Tjson.Int n) -> n
      | _ -> Alcotest.fail "no audit_findings in meta"
    in
    Alcotest.(check bool) "at least one finding" true (findings >= 1);
    let rules =
      match List.assoc_opt "audit_rules" record.Harness.meta with
      | Some (Tjson.Arr rs) ->
        List.filter_map (function Tjson.Str s -> Some s | _ -> None) rs
      | _ -> Alcotest.fail "no audit_rules in meta"
    in
    Alcotest.(check bool) "A001 reported" true (List.mem "A001" rules)
  | rs -> Alcotest.failf "expected one record, got %d" (List.length rs)

let test_record_metrics () =
  Metrics.reset_for_testing ();
  let r =
    routine
      {|
routine f(r0, r1) entry B0 regs 4 {
B0:
  r2 = add r0, r1
  r3 = mul r2, r0
  r2 = add r0, r1
  return r2
}
|}
  in
  (match Analyze.check_routine ~expect_pre:true r with
  | Some (_, diags) -> Analyze.record_metrics diags
  | None -> Alcotest.fail "routine should be auditable");
  Alcotest.(check bool) "analyze.A001 counted" true
    (Metrics.get ~routine:"f" ~name:"analyze.A001" >= 1);
  Metrics.reset_for_testing ()

(* ------------------------------------------------------------------ *)
(* The effectiveness claim, end to end: after the full pipeline at any
   PRE level, no workload routine carries an A-error.                   *)

let test_workloads_no_audit_errors () =
  List.iter
    (fun w ->
      let reference = Workloads.compile w in
      List.iter
        (fun level ->
          let prog, _stats =
            Epre.Pipeline.optimized_copy ~level reference
          in
          let expect_pre = level <> Epre.Pipeline.Baseline in
          let _, diags =
            Analyze.check_program ~expect_pre ~baseline:reference prog
          in
          match Verify.errors diags with
          | [] -> ()
          | errs ->
            Alcotest.failf "%s at %s: %d audit error(s), first: %s"
              w.Workloads.name
              (Epre.Pipeline.level_to_string level)
              (List.length errs)
              (Epre_verify.Diag.to_string (List.hd errs)))
        Epre.Pipeline.all_levels)
    Workloads.all

let suite =
  [
    Alcotest.test_case "classify: fully redundant" `Quick test_classify_full;
    Alcotest.test_case "classify: partially redundant" `Quick
      test_classify_partial;
    Alcotest.test_case "classify: value redundant" `Quick test_classify_value;
    Alcotest.test_case "down-safety verdicts" `Quick test_speculative;
    Alcotest.test_case "residual score" `Quick test_residual;
    Alcotest.test_case "pressure: known peaks" `Quick test_pressure;
    Alcotest.test_case "valnum: congruence" `Quick test_valnum_congruence;
    Alcotest.test_case "valnum: loop-carried not stable" `Quick
      test_valnum_loop_carried;
    Alcotest.test_case "expr-flow: pav contains avail" `Quick
      test_pav_superset_of_av;
    Alcotest.test_case "expr-flow: delete set empty after pre" `Quick
      test_lcm_delete_empty_after_pre;
    Alcotest.test_case "audit postconditions table" `Quick
      test_audit_postconditions;
    Alcotest.test_case "harness audit meta" `Quick test_harness_audit_meta;
    Alcotest.test_case "analyze.* telemetry" `Quick test_record_metrics;
    Alcotest.test_case "workloads carry no audit errors" `Slow
      test_workloads_no_audit_errors;
  ]
