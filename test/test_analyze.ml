(** Tests for the redundancy-auditor stack: site classification and
    down-safety in [Epre_verify.Audit], its value redundancy (A007), the
    [Pressure] estimator, the shared [Expr_flow] systems the auditor reads (and
    their agreement with the PRE engine), and the outward plumbing —
    harness audit meta through [Epre_verify.Analyze] and the
    [analyze.*] telemetry counters. The per-rule negative corpus lives
    in [Test_verify]; this file covers the measurement layer. *)

open Epre_ir
open Epre_util
module Audit = Epre_verify.Audit
module Pressure = Epre_analysis.Pressure
module Dataflow = Epre_analysis.Dataflow
module Liveness = Epre_analysis.Liveness
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

(* A non-canonical recomputation is value-redundant: a congruent
   evaluation, B0:0, dominates it. *)
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
  Alcotest.(check (option (pair int int))) "holder" (Some (0, 0)) s.Audit.holder

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
(* Value redundancy (A007)                                              *)

(* The A007 findings of a report as (site, named holder), the holder
   read back from the message. *)
let findings_a007 (report : Audit.report) =
  List.filter_map
    (fun (f : Audit.finding) ->
      match (f.rule, f.block, f.index) with
      | "A007", Some b, Some i ->
        let m = f.message and key = "recomputes the value " in
        let rec at k =
          if String.sub m k (String.length key) = key then k + String.length key
          else at (k + 1)
        in
        let held = String.sub m (at 0) (String.length m - at 0) in
        Some ((b, i), Scanf.sscanf held "B%d:%d" (fun hb hi -> (hb, hi)))
      | _ -> None)
    report.Audit.findings

let a007 ?expect_pre r =
  match Analyze.check_routine ?expect_pre r with
  | None -> Alcotest.fail "routine should be auditable"
  | Some (report, _) -> findings_a007 report

let check_a007 what want got =
  Alcotest.(check (list (pair (pair int int) (pair int int)))) what want got

let test_a007_congruent_pair () =
  check_a007 "r3 recomputes B0:0" [ ((0, 1), (0, 0)) ]
    (a007
       (routine
          {|
routine f(r0, r1) entry B0 regs 5 {
B0:
  r2 = add r0, r1
  r3 = add r0, r1
  r4 = mul r2, r2
  return r4
}
|}))

(* r2's definition in the loop reads r2: the loop's phi makes its value
   change every iteration, so it is congruent to nothing. *)
let test_a007_loop_carried () =
  check_a007 "no value redundancy" []
    (a007
       (routine
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
|}))

(* r2 is overwritten before r4 recomputes its first value: no register
   holds the value at B0:3, but the evaluation at B0:0 dominates it. *)
let test_a007_two_definitions () =
  check_a007 "r4 recomputes B0:0" [ ((0, 3), (0, 0)) ]
    (a007
       (routine
          {|
routine f(r0, r1) entry B0 regs 6 {
B0:
  r2 = add r0, r1
  r3 = mul r2, r0
  r2 = sub r3, r1
  r4 = add r0, r1
  r5 = mul r4, r2
  return r5
}
|}))

let optimized name level =
  let w = Option.get (Workloads.find name) in
  fst (Epre.Pipeline.optimized_copy ~level (Workloads.compile w))

let site_text (r : Routine.t) (b, i) =
  Pp.instr_to_string (List.nth (Cfg.block r.Routine.cfg b).Block.instrs i)

(* examples/saxpy.epre (the saxpy workload) at reassociation: after GVN,
   constprop and peephole gave -1 a second name, and the late PRE round
   is lexical, so main's B2 adds -1 to r161 again. *)
let test_a007_saxpy () =
  let main =
    Program.find_exn (optimized "saxpy" Epre.Pipeline.Reassociation) "main"
  in
  check_a007 "B2:4 recomputes B0:6" [ ((2, 4), (0, 6)) ] (a007 main);
  Alcotest.(check string) "the site" "r180 <- r161 + r179" (site_text main (2, 4));
  Alcotest.(check string) "its holder" "r167 <- r161 + r165" (site_text main (0, 6))

(* gaussj at partial: B7's compare is loop-invariant and runs every
   iteration. PRE sees it partially redundant and cannot move it; a
   congruent compare dominates it. It stays partial (residual counts
   it once) and gets A007. *)
let test_a007_gaussj () =
  let r = Program.find_exn (optimized "gaussj" Epre.Pipeline.Partial) "gaussj" in
  Alcotest.(check string) "the site" "r88 <- cmp_le r62, r0" (site_text r (7, 5));
  match Analyze.check_routine ~expect_pre:true r with
  | None -> Alcotest.fail "routine should be auditable"
  | Some (report, _) ->
    let s = cls_at report ~block:7 ~index:5 in
    check_cls "classification" Audit.Partial s;
    Alcotest.(check bool) "no holder on a partial site" true (s.Audit.holder = None);
    Alcotest.(check (option (pair int int))) "A007 names B27:3" (Some (27, 3))
      (List.assoc_opt (7, 5) (a007 ~expect_pre:true r))

(* r5 is read in B2 with no definition on the path from B0: SSA cannot
   be built, so the auditor skips A007 and the other rules keep their
   verdicts. The same routine is examples/nonstrict.iloc. *)
let nonstrict =
  {|
routine f(r0, r1) entry B0 regs 7 {
B0:
  r2 = add r0, r1
  r3 = add r0, r1
  r4 = mul r2, r3
  r4 = mul r2, r3
  cbr r0, B1, B2
B1:
  r5 = const 1
  jump B2
B2:
  r6 = add r4, r5
  return r6
}
|}

let test_a007_nonstrict () =
  match Analyze.check_routine ~expect_pre:true (routine nonstrict) with
  | None -> Alcotest.fail "routine should be auditable"
  | Some (report, diags) ->
    check_cls "recomputation" Audit.Clean (cls_at report ~block:0 ~index:1);
    check_cls "re-evaluation" Audit.Full (cls_at report ~block:0 ~index:3);
    Alcotest.(check (list string)) "rules" [ "A001" ]
      (List.map (fun (d : Epre_verify.Diag.t) -> d.Epre_verify.Diag.rule) diags)

(* The auditor's SSA copy, rebuilt here: unreachable blocks emptied, SSA
   with copy folding, then [f (block, index) i] applied to the SSA
   instruction of each of [r]'s non-copy instructions. *)
let on_ssa_copy (r : Routine.t) f =
  let s = Routine.copy r in
  let reachable = Cfg.reachable s.Routine.cfg in
  Cfg.iter_blocks
    (fun b -> if not (Bitset.mem reachable b.Block.id) then b.Block.instrs <- [])
    s.Routine.cfg;
  ignore (Epre_ssa.Ssa.build s);
  Cfg.iter_blocks
    (fun (b : Block.t) ->
      if Bitset.mem reachable b.Block.id then begin
        let own =
          List.concat
            (List.mapi (fun k -> function Instr.Copy _ -> [] | _ -> [ k ]) b.Block.instrs)
        in
        let ssa = Cfg.block s.Routine.cfg b.Block.id in
        let phis = List.length ssa.Block.instrs - List.length own in
        ssa.Block.instrs <-
          List.mapi
            (fun j i -> if j < phis then i else f (b.Block.id, List.nth own (j - phis)) i)
            ssa.Block.instrs
      end)
    r.Routine.cfg;
  s

(* Every A007 finding is a real redundancy: on the SSA copy each site
   becomes a copy of its holder's value, and out of SSA the program
   observes what it did before. *)
let check_a007_sound ~what prog =
  let fuel = Epre_interp.Interp.default_fuel in
  let before, ops = Harness.observe_counted ~fuel prog in
  let fuel = Harness.recheck_budget ~fuel (Option.value ops ~default:fuel) in
  List.iter
    (fun (r : Routine.t) ->
      match Analyze.check_routine r with
      | None -> ()
      | Some (report, _) -> (
        match findings_a007 report with
        | [] -> ()
        | found ->
          let dsts = Hashtbl.create 16 in
          ignore
            (on_ssa_copy r (fun site i ->
                 Option.iter (Hashtbl.replace dsts site) (Instr.def i);
                 i));
          let s =
            on_ssa_copy r (fun site i ->
                match List.assoc_opt site found with
                | Some h ->
                  Instr.Copy { dst = Option.get (Instr.def i); src = Hashtbl.find dsts h }
                | None -> i)
          in
          let p = Program.copy prog in
          Routine.restore (Program.find_exn p r.Routine.name)
            ~from:(Epre_ssa.Ssa.destroy s);
          let after = Harness.observe ~fuel p in
          if not (Harness.obs_equal before after) then
            Alcotest.failf "%s, %s: %d A007 site(s) replaced by their holders: %s, was %s"
              what r.Routine.name (List.length found) (Harness.describe_obs after)
              (Harness.describe_obs before)))
    (Program.routines prog)

let audited_levels = None :: List.map Option.some Epre.Pipeline.all_levels

let level_name = function
  | None -> "unoptimized"
  | Some level -> Epre.Pipeline.level_to_string level

let at_level level reference =
  match level with
  | None -> reference
  | Some level -> fst (Epre.Pipeline.optimized_copy ~level reference)

(* Over the kernels at every audited level: a value site carries a holder
   and no other site does, every value site and no clean or full one gets
   A007, and the counts of value sites and of partial sites with A007 are
   pinned. Every finding passes the soundness check. *)
let test_a007_kernels () =
  let counts =
    List.map
      (fun level ->
        List.fold_left
          (fun (value, partial) w ->
            let reference = Workloads.compile w in
            let prog = at_level level reference in
            let what = w.Workloads.name ^ " at " ^ level_name level in
            check_a007_sound ~what prog;
            let expect_pre =
              Option.fold ~none:false
                ~some:(fun level -> Epre.Pipeline.expects_pre ~level)
                level
            in
            let reports, _ =
              Analyze.check_program ~expect_pre
                ?baseline:(Option.map (fun _ -> reference) level)
                prog
            in
            List.fold_left
              (fun (value, partial) (rn, report) ->
                let found = findings_a007 report in
                List.fold_left
                  (fun (value, partial) (s : Audit.site) ->
                    let flagged = List.mem_assoc (s.block, s.index) found in
                    let where = Printf.sprintf "%s %s B%d:%d" what rn s.block s.index in
                    Alcotest.(check bool) (where ^ ": holder iff value")
                      (s.cls = Audit.Value) (s.holder <> None);
                    match s.cls with
                    | Audit.Value ->
                      Alcotest.(check (option (pair int int)))
                        (where ^ ": A007 names the holder")
                        s.holder (List.assoc_opt (s.block, s.index) found);
                      (value + 1, partial)
                    | Audit.Partial -> (value, if flagged then partial + 1 else partial)
                    | Audit.Clean | Audit.Full ->
                      Alcotest.(check bool) (where ^ ": no A007") false flagged;
                      (value, partial))
                  (value, partial) report.Audit.sites)
              (value, partial) reports)
          (0, 0) Workloads.all)
      audited_levels
  in
  Alcotest.(check (list (pair string (pair int int))))
    "value sites, partial sites with A007"
    [
      ("unoptimized", (739, 0));
      ("baseline", (614, 0));
      ("partial", (37, 5));
      ("reassociation", (42, 1));
      ("distribution", (44, 1));
    ]
    (List.combine (List.map level_name audited_levels) counts)

let test_a007_generated () =
  for seed = 0 to 199 do
    let reference = Epre_frontend.Frontend.compile_string (Epre_fuzz.Gen.source seed) in
    List.iter
      (fun level ->
        check_a007_sound
          ~what:(Printf.sprintf "Gen seed %d at %s" seed (level_name level))
          (at_level level reference))
      audited_levels
  done

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
(* Plumbing: audit flags, harness meta, telemetry                     *)

(* The audit flag is the [audit] field of a registry row's checks, and a
   level stage carries its registry pass's row, so --audit, lint
   postconditions and certification see the levels' stages exactly as the
   same passes under --passes. *)
let test_audit_postconditions () =
  let audit name =
    Option.bind (Epre.Passes.find name) (fun (p : Epre.Pipeline.entry) ->
        p.checks.Harness.audit)
  in
  Alcotest.(check (option bool)) "pre is audited, expects no residue"
    (Some true) (audit "pre");
  Alcotest.(check (option bool)) "gvn is audited, enabling only"
    (Some false) (audit "gvn");
  Alcotest.(check bool) "unknown pass has no row" true
    (Option.is_none (Epre.Passes.find "no-such-pass"));
  let names = List.map (fun (p : Epre.Pipeline.entry) -> p.name) Epre.Passes.all in
  Alcotest.(check int) "no duplicate pass names"
    (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun level ->
      let stages = Epre.Pipeline.level_passes ~level in
      Alcotest.(check (list string))
        (Epre.Pipeline.level_to_string level ^ ": stage labels")
        (Epre.Pipeline.level_stages ~level)
        (List.map (fun (s : Harness.named_pass) -> s.pass_name) stages);
      List.iter2
        (fun (stage : Harness.named_pass) name ->
          let what =
            Printf.sprintf "%s: stage %s runs %s"
              (Epre.Pipeline.level_to_string level) stage.pass_name name
          in
          match Epre.Passes.find name with
          | None -> Alcotest.fail (what ^ ", not a registry pass")
          | Some row ->
            Alcotest.(check (list string)) (what ^ ", postconditions")
              row.checks.post stage.checks.post;
            Alcotest.(check (option bool)) (what ^ ", audited")
              row.checks.audit stage.checks.audit;
            Alcotest.(check bool) (what ^ ", certified by the same checker") true
              (match (row.checks.certify, stage.checks.certify) with
              | Some a, Some b -> a == b
              | None, None -> true
              | _ -> false))
        stages
        (Epre.Pipeline.level_spelling ~level))
    Epre.Pipeline.all_levels

(* A no-op pass audited as PRE leaves the planted full redundancy
   behind: the harness must record the finding in meta and must not roll
   back. *)
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
      ~passes:
        [ { Harness.pass_name = "pre"; run = (fun _ -> ());
            checks = { Harness.no_checks with audit = Some true } } ]
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
          let _, diags =
            Analyze.check_program ~expect_pre:(Epre.Pipeline.expects_pre ~level)
              ~baseline:reference prog
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
    Alcotest.test_case "A007: congruent pair names B0:0" `Quick
      test_a007_congruent_pair;
    Alcotest.test_case "A007: loop-carried add, no A007" `Quick
      test_a007_loop_carried;
    Alcotest.test_case "A007: register with two definitions" `Quick
      test_a007_two_definitions;
    Alcotest.test_case "A007: saxpy's -1 under two names" `Quick test_a007_saxpy;
    Alcotest.test_case "A007: gaussj's loop-invariant compare" `Quick
      test_a007_gaussj;
    Alcotest.test_case "A007: non-strict routine skips A007" `Quick
      test_a007_nonstrict;
    Alcotest.test_case "A007: kernels, every level, pinned and sound" `Slow
      test_a007_kernels;
    Alcotest.test_case "A007: generated programs, findings are sound" `Slow
      test_a007_generated;
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
