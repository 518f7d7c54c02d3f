(** Tests for [Epre.Passes], the named-pass registry behind
    [eprec --passes]. *)

open Epre_ir

let test_all_names_resolve () =
  List.iter
    (fun p ->
      match Epre.Passes.find p.Epre.Pipeline.name with
      | Some q -> Alcotest.(check string) "found itself" p.Epre.Pipeline.name q.Epre.Pipeline.name
      | None -> Alcotest.failf "pass %s not findable" p.Epre.Pipeline.name)
    Epre.Passes.all

let test_names_unique () =
  let names = List.map (fun p -> p.Epre.Pipeline.name) Epre.Passes.all in
  Alcotest.(check int) "no duplicates" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_parse_sequence () =
  (match Epre.Passes.parse_sequence "naming, pre ,dce" with
  | Ok ps ->
    Alcotest.(check (list string)) "parsed in order" [ "naming"; "pre"; "dce" ]
      (List.map (fun p -> p.Epre.Pipeline.name) ps)
  | Error n -> Alcotest.failf "unexpected unknown pass %s" n);
  match Epre.Passes.parse_sequence "naming,bogus,dce" with
  | Error "bogus" -> ()
  | Error n -> Alcotest.failf "wrong unknown pass %s" n
  | Ok _ -> Alcotest.fail "expected an error"

let test_every_pass_preserves_behaviour () =
  (* Each registered pass, run alone on every workload. [naming]-dependent
     passes get their prerequisite. The chaos:* fault injectors corrupt IR
     by design and are exercised by the harness suite instead. *)
  let needs_naming = [ "pre"; "pre-classic"; "cse-avail" ] in
  List.iter
    (fun pass ->
      List.iter
        (fun w ->
          let prog = Epre_workloads.Workloads.compile w in
          let p = Program.copy prog in
          List.iter
            (fun r ->
              if List.mem pass.Epre.Pipeline.name needs_naming then
                ignore (Epre_opt.Naming.run r);
              (Epre.Passes.to_named pass).Epre_harness.Harness.run r;
              Routine.validate r)
            (Program.routines p);
          Helpers.check_same_behaviour
            ~what:(w.Epre_workloads.Workloads.name ^ "+" ^ pass.Epre.Pipeline.name)
            prog p)
        (List.filteri (fun i _ -> i mod 6 = 0) Epre_workloads.Workloads.all))
    (List.filter (fun p -> not (Epre.Passes.is_chaos p)) Epre.Passes.all)

let test_chaos_entries_registered () =
  List.iter
    (fun kind ->
      let name = Epre_harness.Chaos.name kind in
      match Epre.Passes.find name with
      | Some p ->
        Alcotest.(check bool) (name ^ " classified as chaos") true
          (Epre.Passes.is_chaos p)
      | None -> Alcotest.failf "chaos pass %s not registered" name)
    Epre_harness.Chaos.all_kinds;
  List.iter
    (fun p ->
      if Epre.Passes.is_chaos p then
        Alcotest.(check bool) (p.Epre.Pipeline.name ^ " resolvable as chaos kind")
          true
          (Option.is_some (Epre_harness.Chaos.of_name p.Epre.Pipeline.name)))
    Epre.Passes.all

let ten_pass_sequence =
  "distribute,gvn,pre,strength,constprop,peephole-shift,dvnt,dce,coalesce,clean"

let parse_ten () =
  match Epre.Passes.parse_sequence ten_pass_sequence with
  | Ok ps -> ps
  | Error n -> Alcotest.failf "unknown pass %s" n

let test_custom_sequence_end_to_end () =
  let prog =
    Helpers.compile
      {|
fn main(): int {
  var s: int;
  var i: int;
  for i = 1 to 20 {
    s = s + i * 4 + (i - 1) * 4;
  }
  return s;
}
|}
  in
  let reference = Helpers.run_int prog in
  Epre.Pipeline.run_passes (List.map Epre.Passes.to_named (parse_ten ())) prog;
  Alcotest.(check int) "semantics through a 10-pass custom pipeline" reference
    (Helpers.run_int prog)

(* Registry passes transform one routine at a time, so the execution order
   must not matter: the routine-major runner and a plain pass-major loop
   produce the same ILOC text. *)
let test_runner_order_irrelevant () =
  let ps = parse_ten () in
  List.iter
    (fun w ->
      let routine_major = Epre_workloads.Workloads.compile w in
      Epre.Pipeline.run_passes (List.map Epre.Passes.to_named ps) routine_major;
      let pass_major = Epre_workloads.Workloads.compile w in
      List.iter
        (fun pass ->
          List.iter (Epre.Passes.to_named pass).Epre_harness.Harness.run
            (Program.routines pass_major))
        ps;
      Alcotest.(check string) w.Epre_workloads.Workloads.name
        (Ir_text.print_program pass_major)
        (Ir_text.print_program routine_major))
    Epre_workloads.Workloads.all

(* A level is a registry spelling: run by the registry runner, it prints
   the ILOC the level's [optimize] prints, on every workload. *)
let test_level_spellings () =
  List.iter
    (fun level ->
      let spelling = String.concat "," (Epre.Pipeline.level_spelling ~level) in
      List.iter
        (fun w ->
          let leveled = Epre_workloads.Workloads.compile w in
          ignore (Epre.Pipeline.optimize ~level leveled);
          let spelled = Epre_workloads.Workloads.compile w in
          Epre.Pipeline.run_passes (Epre.Passes.named spelling) spelled;
          Alcotest.(check string)
            (w.Epre_workloads.Workloads.name ^ " at " ^ spelling)
            (Ir_text.print_program leveled)
            (Ir_text.print_program spelled))
        Epre_workloads.Workloads.all)
    Epre.Pipeline.all_levels

(* The fingerprints are half of each compile-cache key, and they carry the
   stage labels the per-stage benchmark accounting reads: pinned
   verbatim, so a relabelled or reordered stage is a deliberate change. *)
let test_fingerprints_pinned () =
  Alcotest.(check (list string)) "fingerprints"
    [ "epre-pipeline-v1|baseline|constprop,peephole,dce,coalesce,clean";
      "epre-pipeline-v1|partial|naming,pre,constprop,peephole,dce,coalesce,pre,dce,clean";
      "epre-pipeline-v1|reassociation|reassociation,gvn,pre,constprop,peephole,dce,coalesce,pre,dce,clean";
      "epre-pipeline-v1|distribution|reassociation,gvn,pre,constprop,peephole,dce,coalesce,pre,dce,clean" ]
    (List.map (fun level -> Epre.Pipeline.fingerprint ~level) Epre.Pipeline.all_levels)

(* What the harness checks after each registry pass, written out: its
   postcondition lints, its audit flag ([Some expect_pre]) and its
   certifying checker. Every chaos row carries [no_checks]. *)
let test_checks_pinned () =
  let module C = Epre_verify.Certify in
  let checker = function
    | None -> "-"
    | Some c when c == C.motion -> "motion"
    | Some c when c == C.values -> "values"
    | Some c when c == C.jump_chains -> "jump_chains"
    | Some _ -> "?"
  in
  let audit = function None -> "-" | Some true -> "pre" | Some false -> "delta" in
  let row (p : Epre.Pipeline.entry) =
    let c = p.checks in
    Printf.sprintf "%s [%s] %s %s" p.name
      (String.concat "," c.Epre_harness.Harness.post)
      (audit c.audit) (checker c.certify)
  in
  let chaos, registry = List.partition Epre.Passes.is_chaos Epre.Passes.all in
  Alcotest.(check (list string)) "registry checks"
    [ "naming [] - -";
      "pre [L001] pre motion";
      "pre-classic [L001] pre motion";
      "reassociate [L007] delta -";
      "distribute [L007] delta -";
      "gvn [] delta values";
      "constprop [] - values";
      "peephole [] - values";
      "peephole-shift [] - values";
      "dce [L002] - motion";
      "adce [L002] - -";
      "coalesce [L003] - values";
      "clean [L004] - jump_chains";
      "cse-dom [] delta -";
      "cse-avail [] delta -";
      "dvnt [L005] delta -";
      "strength [] - -";
      "ssa-roundtrip [] - -" ]
    (List.map row registry);
  List.iter
    (fun (p : Epre.Pipeline.entry) ->
      Alcotest.(check string) (p.name ^ " has no checks") (p.name ^ " [] - -") (row p))
    chaos;
  Alcotest.(check (list bool)) "the levels that run PRE" [ false; true; true; true ]
    (List.map (fun level -> Epre.Pipeline.expects_pre ~level) Epre.Pipeline.all_levels)

let suite =
  [
    Alcotest.test_case "registry resolves" `Quick test_all_names_resolve;
    Alcotest.test_case "names unique" `Quick test_names_unique;
    Alcotest.test_case "sequence parsing" `Quick test_parse_sequence;
    Alcotest.test_case "every pass preserves behaviour" `Slow
      test_every_pass_preserves_behaviour;
    Alcotest.test_case "chaos entries registered" `Quick test_chaos_entries_registered;
    Alcotest.test_case "custom 10-pass pipeline" `Quick test_custom_sequence_end_to_end;
    Alcotest.test_case "runner order does not change the ILOC" `Quick
      test_runner_order_irrelevant;
    Alcotest.test_case "level spellings print the levels' ILOC" `Quick
      test_level_spellings;
    Alcotest.test_case "level fingerprints pinned" `Quick test_fingerprints_pinned;
    Alcotest.test_case "each registry pass's checks pinned" `Quick test_checks_pinned;
  ]
