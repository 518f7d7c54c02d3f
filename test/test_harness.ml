(** The fault-tolerant pass harness: checkpoint/rollback supervision,
    translation validation, chaos injection, reporting, and bisection.

    The acceptance matrix: with any single [chaos:*] pass injected into any
    pipeline level, every workload still produces its seed behaviour (the
    rollback engaged), the report lists exactly the injected failures, and
    [Bisect] identifies the injected pass. *)

open Epre_ir
module Harness = Epre_harness.Harness
module Chaos = Epre_harness.Chaos
module Report = Epre_harness.Report
module Bisect = Epre_harness.Bisect

let exec_config =
  { Harness.default_config with Harness.validation = Harness.Exec }

let chaos_pass kind =
  { Harness.pass_name = Chaos.name kind; run = (fun r -> Chaos.run kind r);
    checks = Harness.no_checks }

let is_chaos_record (r : Harness.record) =
  Helpers.contains_substring ~needle:"chaos:" r.Harness.pass

(* --- the acceptance matrix -------------------------------------------- *)

(* Rotate every workload through a (chaos kind, level, position) triple so
   the suite covers the full kind x level product several times without
   running the 16-fold matrix on all 50 workloads. *)
let test_chaos_rotation () =
  let kinds = Array.of_list Chaos.all_kinds in
  let levels = Array.of_list Epre.Pipeline.all_levels in
  let total_rollbacks = ref 0 in
  List.iteri
    (fun i w ->
      let kind = kinds.(i mod Array.length kinds) in
      let level = levels.(i / Array.length kinds mod Array.length levels) in
      let name = w.Epre_workloads.Workloads.name in
      let what =
        Printf.sprintf "%s %s + %s" name
          (Epre.Pipeline.level_to_string level)
          (Chaos.name kind)
      in
      let reference = Epre_workloads.Workloads.compile w in
      let prog = Epre_workloads.Workloads.compile w in
      let _, records =
        Epre.Pipeline.optimize_supervised
          ~inject:[ (i mod 3, chaos_pass kind) ]
          ~config:exec_config ~level prog
      in
      (* Graceful degradation: behaviour is the seed behaviour. *)
      Helpers.check_same_behaviour ~what reference prog;
      (* Exactly the injected failures: a real pass never rolls back. *)
      List.iter
        (fun (r : Harness.record) ->
          match r.Harness.outcome with
          | Harness.Passed -> ()
          | Harness.Rolled_back _ ->
            incr total_rollbacks;
            Alcotest.(check string)
              (what ^ ": only the chaos pass may fail")
              (Chaos.name kind) r.Harness.pass)
        records)
    Epre_workloads.Workloads.all;
  (* The injectors are not duds: corruption was caught across the suite. *)
  Alcotest.(check bool)
    (Printf.sprintf "rollbacks engaged (%d)" !total_rollbacks)
    true (!total_rollbacks > 30)

(* The full kind x level matrix on one workload with a known-corruptible
   kernel (loops, non-commutative arithmetic, live instructions). *)
let test_chaos_full_matrix () =
  let w = Option.get (Epre_workloads.Workloads.find "dot") in
  List.iter
    (fun kind ->
      List.iter
        (fun level ->
          let what =
            Printf.sprintf "dot %s + %s"
              (Epre.Pipeline.level_to_string level)
              (Chaos.name kind)
          in
          let reference = Epre_workloads.Workloads.compile w in
          let prog = Epre_workloads.Workloads.compile w in
          let _, records =
            Epre.Pipeline.optimize_supervised
              ~inject:[ (1, chaos_pass kind) ]
              ~config:exec_config ~level prog
          in
          Helpers.check_same_behaviour ~what reference prog;
          let failed = Harness.rolled_back records in
          Alcotest.(check bool) (what ^ ": chaos caught") true (failed <> []);
          List.iter
            (fun (r : Harness.record) ->
              Alcotest.(check string) (what ^ ": culprit name") (Chaos.name kind)
                r.Harness.pass)
            failed)
        Epre.Pipeline.all_levels)
    Chaos.all_kinds

(* --- detection tiers --------------------------------------------------- *)

let test_ir_tier_catches_structural_faults () =
  (* break-phi and detach-edge violate well-formedness: the [Ir] tier
     catches them without interpreting anything. *)
  let w = Option.get (Epre_workloads.Workloads.find "saxpy") in
  List.iter
    (fun kind ->
      let prog = Epre_workloads.Workloads.compile w in
      let reference = Epre_workloads.Workloads.compile w in
      let _, records =
        Epre.Pipeline.optimize_supervised
          ~inject:[ (0, chaos_pass kind) ]
          ~config:Harness.default_config (* Ir tier *)
          ~level:Epre.Pipeline.Partial prog
      in
      let failed = Harness.rolled_back records in
      Alcotest.(check bool)
        (Chaos.name kind ^ " caught at ir tier")
        true
        (List.exists (fun (r : Harness.record) -> r.Harness.pass = Chaos.name kind) failed);
      List.iter
        (fun (r : Harness.record) ->
          match r.Harness.outcome with
          | Harness.Rolled_back (Harness.Ir_violation _) | Harness.Passed -> ()
          | Harness.Rolled_back why ->
            Alcotest.failf "%s: expected an IR violation, got %s" r.Harness.pass
              (Harness.reason_to_string why))
        failed;
      Helpers.check_same_behaviour ~what:(Chaos.name kind) reference prog)
    [ Chaos.Break_phi; Chaos.Detach_edge ]

let test_exec_tier_catches_semantic_faults () =
  (* drop-instr and swap-operands corrupt semantics, not CFG structure.
     The exec tier must catch them — usually as a behaviour mismatch,
     though the verifier-backed IR sub-tier may catch one statically
     first (e.g. dropping a definition trips the definite-assignment
     rule V008), which is the stronger outcome. *)
  let w = Option.get (Epre_workloads.Workloads.find "saxpy") in
  List.iter
    (fun kind ->
      let prog = Epre_workloads.Workloads.compile w in
      let _, records =
        Epre.Pipeline.optimize_supervised
          ~inject:[ (0, chaos_pass kind) ]
          ~config:exec_config ~level:Epre.Pipeline.Partial prog
      in
      match
        List.find_opt
          (fun (r : Harness.record) -> r.Harness.pass = Chaos.name kind)
          (Harness.rolled_back records)
      with
      | Some
          { Harness.outcome =
              Harness.Rolled_back
                (Harness.Behaviour_mismatch _ | Harness.Ir_violation _);
            _ } ->
        ()
      | Some { Harness.outcome = Harness.Rolled_back why; _ } ->
        Alcotest.failf "%s: expected a mismatch or IR violation, got %s"
          (Chaos.name kind)
          (Harness.reason_to_string why)
      | _ -> Alcotest.failf "%s: not caught" (Chaos.name kind))
    [ Chaos.Drop_instr; Chaos.Swap_operands ]

let test_exception_rolls_back () =
  let prog = Helpers.compile "fn main(): int { return 6 * 7; }" in
  let before = Pp.routine_to_string (Program.find_exn prog "main") in
  let bomb =
    { Harness.pass_name = "bomb"; run = (fun _ -> failwith "kaboom"); checks = Harness.no_checks }
  in
  let records =
    Harness.supervise
      { Harness.default_config with Harness.validation = Harness.Off }
      ~passes:[ bomb ] prog
  in
  (match records with
  | [ { Harness.outcome = Harness.Rolled_back (Harness.Pass_exception m); _ } ] ->
    Alcotest.(check bool) "message kept" true
      (Helpers.contains_substring ~needle:"kaboom" m)
  | _ -> Alcotest.fail "expected exactly one rolled-back record");
  Alcotest.(check string) "IR restored bit-for-bit" before
    (Pp.routine_to_string (Program.find_exn prog "main"))

let test_rollback_restores_ir_exactly () =
  (* Chaos may land a harmless mutation (e.g. dropping an instruction in an
     unreachable block), which the harness rightly keeps — so assert
     bit-for-bit restoration only for the routines that rolled back. *)
  let w = Option.get (Epre_workloads.Workloads.find "euclid") in
  let prog = Epre_workloads.Workloads.compile w in
  List.iter
    (fun kind ->
      let before =
        List.map
          (fun (r : Routine.t) -> (r.Routine.name, Pp.routine_to_string r))
          (Program.routines prog)
      in
      let records =
        Harness.supervise exec_config ~passes:[ chaos_pass kind ] prog
      in
      List.iter
        (fun (rcd : Harness.record) ->
          match rcd.Harness.outcome with
          | Harness.Passed -> ()
          | Harness.Rolled_back _ ->
            Alcotest.(check string)
              (Chaos.name kind ^ ": " ^ rcd.Harness.routine ^ " restored")
              (List.assoc rcd.Harness.routine before)
              (Pp.routine_to_string (Program.find_exn prog rcd.Harness.routine)))
        records)
    Chaos.all_kinds

let test_fail_fast_without_safe () =
  let w = Option.get (Epre_workloads.Workloads.find "euclid") in
  let prog = Epre_workloads.Workloads.compile w in
  let config = { exec_config with Harness.keep_going = false } in
  match
    Epre.Pipeline.optimize_supervised
      ~inject:[ (0, chaos_pass Chaos.Detach_edge) ]
      ~config ~level:Epre.Pipeline.Baseline prog
  with
  | _ -> Alcotest.fail "expected Supervision_failed"
  | exception Harness.Supervision_failed record ->
    Alcotest.(check string) "culprit" (Chaos.name Chaos.Detach_edge)
      record.Harness.pass

(* --- reporting --------------------------------------------------------- *)

let test_report_json_shape () =
  let w = Option.get (Epre_workloads.Workloads.find "saxpy") in
  let prog = Epre_workloads.Workloads.compile w in
  let _, records =
    Epre.Pipeline.optimize_supervised
      ~inject:[ (0, chaos_pass Chaos.Detach_edge) ]
      ~config:exec_config ~level:Epre.Pipeline.Partial prog
  in
  let json = Report.to_json records in
  let has n = Helpers.contains_substring ~needle:n json in
  Alcotest.(check bool) "rolled-back entry" true (has "\"outcome\":\"rolled-back\"");
  Alcotest.(check bool) "ok entry" true (has "\"outcome\":\"ok\"");
  Alcotest.(check bool) "culprit named" true (has "\"pass\":\"chaos:detach-edge\"");
  Alcotest.(check bool) "reason given" true (has "\"reason\":\"ill-formed IR:");
  Alcotest.(check bool) "timings present" true (has "\"duration_ms\":");
  (* An ok record carries no reason field. *)
  List.iter
    (fun (r : Harness.record) ->
      match r.Harness.outcome with
      | Harness.Passed ->
        Alcotest.(check bool) "ok record has no reason" false
          (Helpers.contains_substring ~needle:"reason" (Report.record_to_json r))
      | Harness.Rolled_back _ -> ())
    records

let test_report_meta_fields () =
  (* [record.meta] renders verbatim after the fixed fields — the shared
     schema the fuzzer's verdicts rely on. Supervised runs leave it
     empty. *)
  let base =
    { Harness.pass = "pre"; routine = "main"; outcome = Harness.Passed;
      duration_ms = 1.5; meta = [] }
  in
  Alcotest.(check bool) "empty meta adds nothing" false
    (Helpers.contains_substring ~needle:"fuzz_"
       (Report.record_to_json base));
  let tagged =
    { base with
      Harness.meta =
        [ ("fuzz_seed", Epre_telemetry.Tjson.Int 42);
          ("fuzz_class", Epre_telemetry.Tjson.Str "behaviour-mismatch") ] }
  in
  let json = Report.record_to_json tagged in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " rendered") true
        (Helpers.contains_substring ~needle json))
    [ "\"fuzz_seed\":42"; "\"fuzz_class\":\"behaviour-mismatch\"";
      "\"duration_ms\":" ];
  (* and the Tjson embedding parses back with the meta intact *)
  match
    Epre_telemetry.Tjson.parse
      (Epre_telemetry.Tjson.to_string (Report.record_to_tjson tagged))
  with
  | Error m -> Alcotest.failf "record JSON does not parse: %s" m
  | Ok doc ->
    Alcotest.(check bool) "meta member survives" true
      (Epre_telemetry.Tjson.member "fuzz_seed" doc
      = Some (Epre_telemetry.Tjson.Int 42))

let test_report_lists_exactly_the_failures () =
  let w = Option.get (Epre_workloads.Workloads.find "dot") in
  let prog = Epre_workloads.Workloads.compile w in
  let _, records =
    Epre.Pipeline.optimize_supervised
      ~inject:[ (2, chaos_pass Chaos.Drop_instr) ]
      ~config:exec_config ~level:Epre.Pipeline.Distribution prog
  in
  let failed = Harness.rolled_back records in
  Alcotest.(check bool) "at least one failure" true (failed <> []);
  List.iter
    (fun r ->
      Alcotest.(check bool) "every failure is the injected pass" true
        (is_chaos_record r))
    failed;
  (* and the report renders one rolled-back line per failure *)
  let json = Report.to_json records in
  let count_occurrences needle =
    let rec go i acc =
      if i + String.length needle > String.length json then acc
      else if String.sub json i (String.length needle) = needle then
        go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "one rolled-back JSON record per failure"
    (List.length failed)
    (count_occurrences "\"rolled-back\"")

(* --- chaos determinism ------------------------------------------------- *)

let test_chaos_is_seed_deterministic () =
  let corrupt seed =
    let prog =
      Epre_workloads.Workloads.compile
        (Option.get (Epre_workloads.Workloads.find "euclid"))
    in
    List.iter (fun r -> Chaos.run ~seed Chaos.Drop_instr r) (Program.routines prog);
    String.concat "\n" (List.map Pp.routine_to_string (Program.routines prog))
  in
  Alcotest.(check string) "same seed, same corruption" (corrupt 7) (corrupt 7);
  Alcotest.(check bool) "chaos corrupts under some seed" true
    (corrupt 7 <> corrupt 8 || corrupt 7 <> corrupt 9)

(* --- chaos specs ---------------------------------------------------------- *)

let test_chaos_parse_spec () =
  List.iter
    (fun (spec, expected) ->
      let got =
        match Chaos.parse_spec spec with
        | Ok (at, np) -> Ok (at, np.Harness.pass_name)
        | Error m -> Error m
      in
      Alcotest.(check (result (pair int string) string)) spec expected got)
    [ ("chaos:drop-instr", Ok (0, "chaos:drop-instr"));
      ("chaos:swap-operands@3", Ok (3, "chaos:swap-operands"));
      ("chaos:drop-instr@-1", Error "bad chaos position in \"chaos:drop-instr@-1\"");
      ("chaos:drop-instr@x", Error "bad chaos position in \"chaos:drop-instr@x\"");
      ("chaos:no-such-fault", Error "unknown chaos pass \"chaos:no-such-fault\"");
      ("pre@1", Error "unknown chaos pass \"pre\"") ]

(* --- bisection --------------------------------------------------------- *)

(* Bisection is supervision at the [Exec] tier that stops at the first
   rollback, so its culprit must be exactly the first rolled-back record
   of a [--safe] run over the same sequence. *)
let test_bisect_finds_injected_pass () =
  let constructor = function
    | Harness.Pass_exception _ -> "pass exception"
    | Harness.Ir_violation _ -> "ir violation"
    | Harness.Behaviour_mismatch _ -> "behaviour mismatch"
  in
  List.iter
    (fun workload ->
      let prog =
        Epre_workloads.Workloads.compile
          (Option.get (Epre_workloads.Workloads.find workload))
      in
      List.iter
        (fun (kind, position) ->
          let what = workload ^ "/" ^ Chaos.name kind in
          let passes =
            Epre.Pipeline.splice
              (Epre.Pipeline.level_passes ~level:Epre.Pipeline.Partial)
              ~at:position (chaos_pass kind)
          in
          let _, records =
            Epre.Pipeline.optimize_supervised
              ~inject:[ (position, chaos_pass kind) ]
              ~config:exec_config ~level:Epre.Pipeline.Partial
              (Program.copy prog)
          in
          match (Bisect.run ~passes prog, Harness.rolled_back records) with
          | None, _ -> Alcotest.failf "%s: bisect found nothing" what
          | Some _, [] -> Alcotest.failf "%s: supervision rolled nothing back" what
          | Some failure, first :: _ ->
            Alcotest.(check string) (what ^ ": culprit name") (Chaos.name kind)
              failure.Bisect.pass;
            Alcotest.(check int) (what ^ ": culprit position") position
              failure.Bisect.index;
            Alcotest.(check string) (what ^ ": pass as supervised")
              first.Harness.pass failure.Bisect.pass;
            Alcotest.(check string) (what ^ ": routine as supervised")
              first.Harness.routine failure.Bisect.routine;
            Alcotest.(check string) (what ^ ": reason as supervised")
              (match first.Harness.outcome with
              | Harness.Rolled_back reason -> constructor reason
              | Harness.Passed -> "passed")
              (constructor failure.Bisect.reason);
            Alcotest.(check bool) (what ^ ": IR delta shown") true
              (failure.Bisect.delta <> []))
        [ (Chaos.Drop_instr, 0); (Chaos.Swap_operands, 1); (Chaos.Break_phi, 2);
          (Chaos.Detach_edge, 3) ])
    [ "dot"; "euclid" ]

let test_bisect_healthy_sequence () =
  let w = Option.get (Epre_workloads.Workloads.find "saxpy") in
  let prog = Epre_workloads.Workloads.compile w in
  let passes = Epre.Pipeline.level_passes ~level:Epre.Pipeline.Distribution in
  Alcotest.(check bool) "healthy" true (Bisect.run ~passes prog = None)

let test_bisect_does_not_mutate_input () =
  let w = Option.get (Epre_workloads.Workloads.find "euclid") in
  let prog = Epre_workloads.Workloads.compile w in
  let before = List.map Pp.routine_to_string (Program.routines prog) in
  let passes =
    chaos_pass Chaos.Drop_instr :: Epre.Pipeline.level_passes ~level:Epre.Pipeline.Baseline
  in
  ignore (Bisect.run ~passes prog);
  List.iter2
    (fun b a -> Alcotest.(check string) "input untouched" b a)
    before
    (List.map Pp.routine_to_string (Program.routines prog))

(* --- satellite: Naming stats surfaced --------------------------------- *)

let test_exprs_renamed_recorded () =
  (* Two expressions fighting over one target register: [Naming] must
     rewrite, and the Partial pipeline must surface the count. *)
  let b = Builder.start ~name:"main" ~nparams:0 in
  let x = Builder.int b 3 in
  let y = Builder.int b 4 in
  let t = Builder.fresh_reg b in
  Builder.emit b (Instr.Binop { op = Op.Add; dst = t; a = x; b = y });
  Builder.emit b (Instr.Binop { op = Op.Mul; dst = t; a = x; b = y });
  Builder.ret b (Some t);
  let prog = Program.create [ Builder.finish b ] in
  let stats = Epre.Pipeline.optimize ~level:Epre.Pipeline.Partial prog in
  (match stats with
  | [ s ] ->
    Alcotest.(check bool) "renamed sites surfaced" true
      (s.Epre.Pipeline.exprs_renamed > 0)
  | _ -> Alcotest.fail "one routine expected");
  let prog2 =
    Epre_workloads.Workloads.compile
      (Option.get (Epre_workloads.Workloads.find "saxpy"))
  in
  List.iter
    (fun s ->
      Alcotest.(check int) "baseline never renames" 0 s.Epre.Pipeline.exprs_renamed)
    (Epre.Pipeline.optimize ~level:Epre.Pipeline.Baseline prog2)

(* --- exact observation of non-finite floats -------------------------- *)

let test_value_close_non_finite () =
  let f x = Value.F x in
  List.iter
    (fun (what, a, b, expected) ->
      Alcotest.(check bool) what expected (Harness.value_close a b))
    [ ("nan = nan", f Float.nan, f Float.nan, true);
      ("nan = -nan", f Float.nan, f (-.Float.nan), true);
      ("+inf = +inf", f Float.infinity, f Float.infinity, true);
      ("-inf = -inf", f Float.neg_infinity, f Float.neg_infinity, true);
      ("+inf <> -inf", f Float.infinity, f Float.neg_infinity, false);
      ("nan <> 1.0", f Float.nan, f 1.0, false);
      ("nan <> +inf", f Float.nan, f Float.infinity, false);
      ("+inf <> max_float", f Float.infinity, f Float.max_float, false);
      ("-0.0 = 0.0", f (-0.0), f 0.0, true);
      ("reassociation noise", f 1.0, f (1.0 +. 1e-12), true);
      ("real difference", f 1.0, f 1.001, false);
      ("int <> float", Value.I 1, f 1.0, false) ];
  let obs = Ok (Some (f Float.nan), [ f Float.infinity; f Float.neg_infinity; f (-0.0) ]) in
  Alcotest.(check bool) "a non-finite observation equals itself" true
    (Harness.obs_equal obs obs)

let test_exec_tier_non_finite_no_rollback () =
  (* Every pass leaves these programs' behaviour alone, so the exec tier
     must keep every pass even though the observations are NaN or
     infinite. *)
  List.iter
    (fun (what, source) ->
      let prog = Helpers.compile source in
      let _, records =
        Epre.Pipeline.optimize_supervised ~config:exec_config
          ~level:Epre.Pipeline.Partial prog
      in
      Alcotest.(check bool) (what ^ ": passes ran") true (records <> []);
      Alcotest.(check int) (what ^ ": rollbacks") 0
        (List.length (Harness.rolled_back records)))
    [ ( "sqrt of -1",
        "fn main(): float { var x: float; x = 0.0 - 1.0; return sqrt(x); }" );
      ( "infinities and -0.0",
        {|
fn main(): float {
  var x: float; var y: float;
  x = 1.0e300 * 1.0e300; y = 0.0 - x;
  emit(y); emit(0.0 * (0.0 - 1.0));
  return x;
}
|} ) ]

let test_exec_tier_identity_passes () =
  (* Passes that leave every routine as it was, sharing its lists or
     rebuilding them, pass at the exec tier: each step equals its
     snapshot, so the harness keeps it without interpreting again. *)
  let passes =
    [ { Harness.pass_name = "identity"; run = ignore; checks = Harness.no_checks };
      { Harness.pass_name = "rebuild-lists";
        run =
          (fun r ->
            Cfg.iter_blocks
              (fun b -> b.Block.instrs <- List.map Fun.id b.Block.instrs)
              r.Routine.cfg);
        checks = Harness.no_checks };
      { Harness.pass_name = "restore-copy";
        run = (fun r -> Routine.restore r ~from:(Routine.copy r));
        checks = Harness.no_checks } ]
  in
  List.iter
    (fun name ->
      let prog = Epre_workloads.Workloads.compile (Option.get (Epre_workloads.Workloads.find name)) in
      let records = Harness.supervise exec_config ~passes prog in
      Alcotest.(check int) (name ^ ": one record per step")
        (List.length passes * List.length (Program.routines prog))
        (List.length records);
      List.iter
        (fun (r : Harness.record) ->
          Alcotest.(check bool) (name ^ ": " ^ r.Harness.pass ^ " passed") true
            (r.Harness.outcome = Harness.Passed))
        records)
    [ "dot"; "fmin"; "euclid" ]

(* --- the verifier's verdicts, side by side ------------------------ *)

(* Supervise [passes] over [p] with each pass wrapped to run a fresh
   [Verify.check_post_pass] right after the real pass, on exactly the
   state [supervise] is about to check ([None] when the pass raised).
   Every record must carry that fresh verdict, and the [verify.*]
   counters must add up to the fresh diagnostics, however much of the
   verdict [supervise] itself re-derived. *)
let check_verdicts_side_by_side ~what config ~passes (p : Program.t) =
  let module Verify = Epre_verify.Verify in
  let module Diag = Epre_verify.Diag in
  let module Metrics = Epre_telemetry.Metrics in
  let module Tjson = Epre_telemetry.Tjson in
  let fresh = ref [] in
  let wrap (np : Harness.named_pass) =
    { np with
      Harness.run =
        (fun r ->
          match np.Harness.run r with
          | exception e ->
            fresh := None :: !fresh;
            raise e
          | () ->
            fresh :=
              Some (Verify.check_post_pass ~post:np.Harness.checks.Harness.post ~program:p r)
              :: !fresh) }
  in
  Metrics.reset ();
  let records = Harness.supervise config ~passes:(List.map wrap passes) p in
  let fresh = List.rev !fresh in
  if List.length records <> List.length fresh then
    Alcotest.failf "%s: %d records, %d fresh verdicts" what (List.length records)
      (List.length fresh);
  let want_counters = Hashtbl.create 16 in
  List.iter2
    (fun (rc : Harness.record) verdict ->
      let step = Printf.sprintf "%s: %s/%s" what rc.Harness.pass rc.Harness.routine in
      match verdict with
      | None -> (
        match rc.Harness.outcome with
        | Harness.Rolled_back (Harness.Pass_exception _) -> ()
        | _ -> Alcotest.failf "%s: the pass raised but was not rolled back for it" step)
      | Some diags -> (
        List.iter
          (fun (d : Diag.t) ->
            let key = (d.Diag.loc.Diag.routine, "verify." ^ d.Diag.rule) in
            Hashtbl.replace want_counters key
              (1 + Option.value ~default:0 (Hashtbl.find_opt want_counters key)))
          diags;
        match Verify.errors diags with
        | d :: _ ->
          if rc.Harness.outcome <> Harness.Rolled_back (Harness.Ir_violation (Diag.to_string d))
          then Alcotest.failf "%s: not rolled back for the first error %s" step (Diag.to_string d);
          if List.assoc_opt "verify_rule" rc.Harness.meta <> Some (Tjson.Str d.Diag.rule) then
            Alcotest.failf "%s: verify_rule is not %s" step d.Diag.rule
        | [] ->
          (* A behaviour-mismatch rollback carries no meta. *)
          let warns =
            match rc.Harness.outcome with
            | Harness.Rolled_back (Harness.Ir_violation m) ->
              Alcotest.failf "%s: rolled back (%s) but a fresh check finds no error" step m
            | Harness.Rolled_back _ -> 0
            | Harness.Passed -> List.length (Verify.warnings diags)
          in
          if List.assoc_opt "verify_warnings" rc.Harness.meta
             <> if warns > 0 then Some (Tjson.Int warns) else None
          then Alcotest.failf "%s: verify_warnings is not %d" step warns))
    records fresh;
  let sorted = List.sort compare in
  let got =
    List.filter_map
      (fun (e : Metrics.entry) ->
        if String.starts_with ~prefix:"verify." e.Metrics.name then
          Some ((e.Metrics.routine, e.Metrics.name), e.Metrics.value)
        else None)
      (Metrics.snapshot ())
  in
  let want = Hashtbl.fold (fun k v acc -> (k, v) :: acc) want_counters [] in
  if sorted got <> sorted want then
    Alcotest.failf "%s: verify.* counters do not sum the fresh diagnostics" what

(* Every kernel at every level, plain and with each chaos kind spliced
   in, at the [Ir] and [Exec] tiers; then generated programs, each at one
   level with one chaos choice, at both tiers. *)
let test_verdicts_side_by_side () =
  let chaos_choices = None :: List.map Option.some Chaos.all_kinds in
  let run ~what ~level ~chaos_at ~chaos prog_of =
    List.iter
      (fun validation ->
        let config = { Harness.default_config with Harness.validation } in
        let passes = Epre.Pipeline.level_passes ~level in
        List.iter
          (fun chaos ->
            let passes, what =
              match chaos with
              | None -> (passes, what)
              | Some kind ->
                let at = chaos_at mod (List.length passes + 1) in
                ( Epre.Pipeline.splice passes ~at (chaos_pass kind),
                  Printf.sprintf "%s + %s@%d" what (Chaos.name kind) at )
            in
            let what =
              Printf.sprintf "%s %s [%s]" what (Epre.Pipeline.level_to_string level)
                (Harness.validation_to_string validation)
            in
            check_verdicts_side_by_side ~what config ~passes (prog_of ()))
          chaos)
      [ Harness.Ir; Harness.Exec ]
  in
  List.iteri
    (fun i w ->
      List.iter
        (fun level ->
          run ~what:w.Epre_workloads.Workloads.name ~level ~chaos_at:i ~chaos:chaos_choices
            (fun () -> Epre_workloads.Workloads.compile w))
        Epre.Pipeline.all_levels)
    Epre_workloads.Workloads.all;
  let levels = Array.of_list Epre.Pipeline.all_levels in
  for seed = 1 to 120 do
    let source = Epre_fuzz.Gen.source seed in
    run ~what:(Printf.sprintf "gen %d" seed)
      ~level:levels.(seed mod Array.length levels)
      ~chaos_at:seed
      ~chaos:[ List.nth chaos_choices (seed mod List.length chaos_choices) ]
      (fun () -> Epre_frontend.Frontend.compile_string source)
  done

let suite =
  [
    Alcotest.test_case "chaos x level rotation over all workloads" `Slow
      test_chaos_rotation;
    Alcotest.test_case "chaos x level full matrix on dot" `Slow test_chaos_full_matrix;
    Alcotest.test_case "ir tier catches structural faults" `Quick
      test_ir_tier_catches_structural_faults;
    Alcotest.test_case "exec tier catches semantic faults" `Quick
      test_exec_tier_catches_semantic_faults;
    Alcotest.test_case "pass exception rolls back" `Quick test_exception_rolls_back;
    Alcotest.test_case "rollback restores IR exactly" `Quick
      test_rollback_restores_ir_exactly;
    Alcotest.test_case "keep_going=false fails fast" `Quick test_fail_fast_without_safe;
    Alcotest.test_case "report JSON shape" `Quick test_report_json_shape;
    Alcotest.test_case "report meta fields (fuzz provenance)" `Quick
      test_report_meta_fields;
    Alcotest.test_case "report lists exactly the failures" `Quick
      test_report_lists_exactly_the_failures;
    Alcotest.test_case "chaos is seed-deterministic" `Quick
      test_chaos_is_seed_deterministic;
    Alcotest.test_case "chaos spec parsing" `Quick test_chaos_parse_spec;
    Alcotest.test_case "bisect finds the injected pass" `Slow
      test_bisect_finds_injected_pass;
    Alcotest.test_case "bisect on a healthy sequence" `Quick test_bisect_healthy_sequence;
    Alcotest.test_case "bisect leaves the input program intact" `Quick
      test_bisect_does_not_mutate_input;
    Alcotest.test_case "naming rename count surfaced" `Quick test_exprs_renamed_recorded;
    Alcotest.test_case "value_close is exact on NaN, infinities, -0.0" `Quick
      test_value_close_non_finite;
    Alcotest.test_case "exec tier keeps passes on non-finite output" `Quick
      test_exec_tier_non_finite_no_rollback;
    Alcotest.test_case "exec tier: identity passes all pass" `Quick
      test_exec_tier_identity_passes;
    Alcotest.test_case "verdicts equal a fresh check_post_pass" `Slow
      test_verdicts_side_by_side;
  ]
