(** Tests for the fuzz subsystem ([Epre_fuzz]): generator determinism and
    invariants, the source printer round trip, the differential oracle's
    two verdict directions (clean pipelines pass, chaos-injected
    pipelines fail), the ILOC reducer (the ≤25%% acceptance bar, strict
    candidates only, kernels as well as generated programs), the corpus
    round trip, replay, and campaign determinism. *)

module Fuzz = Epre_fuzz
module Ast_ops = Epre_frontend.Ast_ops
module Frontend = Epre_frontend.Frontend
module Harness = Epre_harness.Harness
module Ir_text = Epre_ir.Ir_text
module Verify = Epre_verify.Verify

let compile_ast ast =
  Frontend.compile_string (Ast_ops.print_program ast)

(* A couple of dozen seeds keeps this suite quick; `eprec fuzz` covers
   breadth in CI. *)
let seeds = List.init 25 (fun i -> 31 * i)

let chaos_spec = "chaos:drop-instr@2"

let chaos_oracle spec =
  { Fuzz.Oracle.default_config with
    chaos =
      (match Epre_harness.Chaos.parse_spec spec with
      | Ok c -> Some c
      | Error m -> failwith m);
    chaos_name = Some spec;
    fuel = 1_000_000 }

let chaos_config = chaos_oracle chaos_spec

let swap_config = chaos_oracle "chaos:swap-operands@1"

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)

let test_generator_deterministic () =
  List.iter
    (fun seed ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d reproduces" seed)
        (Fuzz.Gen.source seed) (Fuzz.Gen.source seed))
    seeds;
  Alcotest.(check bool) "different seeds differ" false
    (String.equal (Fuzz.Gen.source 1) (Fuzz.Gen.source 2))

let test_generator_well_formed () =
  (* Every generated program compiles (well-typed) and interprets without
     a runtime error or fuel exhaustion (trap-free, terminating). *)
  List.iter
    (fun seed ->
      let prog = Frontend.compile_string (Fuzz.Gen.source seed) in
      match Harness.observe ~fuel:1_000_000 prog with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "seed %d: %s" seed m)
    seeds

let test_printer_round_trip () =
  (* print -> parse -> print is the identity on generated programs, and
     the reparse preserves behaviour. *)
  List.iter
    (fun seed ->
      let src = Fuzz.Gen.source seed in
      let reparsed = Frontend.parse_string src in
      Alcotest.(check string)
        (Printf.sprintf "seed %d reprint" seed)
        src
        (Ast_ops.print_program reparsed);
      let a = Harness.observe ~fuel:1_000_000 (Frontend.compile_string src) in
      let b = Harness.observe ~fuel:1_000_000 (compile_ast reparsed) in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d behaviour" seed)
        true (Harness.obs_equal a b))
    seeds

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)

let test_oracle_clean () =
  List.iter
    (fun seed ->
      let prog = Frontend.compile_string (Fuzz.Gen.source seed) in
      let cfg = { Fuzz.Oracle.default_config with fuel = 1_000_000 } in
      match Fuzz.Oracle.check cfg prog with
      | [] -> ()
      | f :: _ ->
        Alcotest.failf "seed %d: false positive %s at %s" seed
          (Fuzz.Oracle.class_to_string f.Fuzz.Oracle.cls)
          (Epre.Pipeline.level_to_string f.Fuzz.Oracle.level))
    seeds

let test_oracle_catches_chaos () =
  List.iter
    (fun seed ->
      let prog = Frontend.compile_string (Fuzz.Gen.source seed) in
      match Fuzz.Oracle.check chaos_config prog with
      | [] -> Alcotest.failf "seed %d: chaos fault not detected" seed
      | _ -> ())
    [ 0; 7; 42 ]

let test_oracle_pinpoint () =
  let prog = Frontend.compile_string (Fuzz.Gen.source 7) in
  let cfg = { chaos_config with pinpoint = true } in
  match Fuzz.Oracle.check cfg prog with
  | [] -> Alcotest.fail "chaos fault not detected"
  | f :: _ ->
    (match f.Fuzz.Oracle.culprit with
    | None -> Alcotest.fail "pinpoint produced no culprit"
    | Some c ->
      Alcotest.(check string)
        "culprit is the injected fault" "chaos:drop-instr" c.Epre_harness.Bisect.pass)

let test_failure_record_meta () =
  let prog = Frontend.compile_string (Fuzz.Gen.source 7) in
  match Fuzz.Oracle.check chaos_config prog with
  | [] -> Alcotest.fail "chaos fault not detected"
  | f :: _ ->
    let record =
      Fuzz.Oracle.failure_record ~seed:7 ~chaos:chaos_spec
        ~repro:"corpus/x/repro.iloc" f
    in
    let json = Epre_harness.Report.record_to_json record in
    List.iter
      (fun needle ->
        if not (Helpers.contains_substring ~needle json) then
          Alcotest.failf "record %s lacks %S" json needle)
      [ "\"fuzz_seed\":7"; "\"fuzz_level\":"; "\"fuzz_class\":";
        "\"fuzz_chaos\":\"chaos:drop-instr@2\"";
        "\"fuzz_repro\":\"corpus/x/repro.iloc\"" ]

(* ------------------------------------------------------------------ *)
(* Reduction (the acceptance bar: chaos repro shrinks to <= 25%)       *)

(* The first failure [config] finds in [prog], and its reduction;
   [watch] sees every candidate the reducer offers to the oracle. *)
let reduce_failure ?(watch = ignore) config prog =
  match Fuzz.Oracle.check config prog with
  | [] -> Alcotest.fail "chaos fault not detected"
  | f :: _ ->
    let still =
      Fuzz.Campaign.still_fails config ~level:f.Fuzz.Oracle.level
        ~cls:f.Fuzz.Oracle.cls
    in
    let offered cand =
      watch cand;
      still cand
    in
    let reduced, stats = Fuzz.Reduce.run ~still_fails:offered prog in
    (f, still, reduced, stats)

let generated seed = Frontend.compile_string (Fuzz.Gen.source seed)

let test_reduction_quality () =
  List.iter
    (fun (config, seed) ->
      let what = Printf.sprintf "%s, seed %d" (Option.get config.Fuzz.Oracle.chaos_name) seed in
      let _, still, reduced, stats = reduce_failure config (generated seed) in
      Alcotest.(check bool) (what ^ ": reduced still fails") true (still reduced);
      let ratio =
        float_of_int stats.Fuzz.Reduce.reduced_instrs
        /. float_of_int stats.Fuzz.Reduce.original_instrs
      in
      if ratio > 0.25 then
        Alcotest.failf "%s: reduction too weak: %d -> %d instructions (%.0f%%)" what
          stats.Fuzz.Reduce.original_instrs stats.Fuzz.Reduce.reduced_instrs
          (100. *. ratio);
      Alcotest.(check bool) (what ^ ": reducer reports progress") true
        (stats.Fuzz.Reduce.accepted > 0 && stats.Fuzz.Reduce.tried >= stats.Fuzz.Reduce.accepted))
    [ (chaos_config, 42); (swap_config, 42); (swap_config, 11) ]

(* Only strict, well-typed ILOC reaches the oracle. *)
let test_reduction_candidates_verify () =
  let offered = ref 0 in
  let watch cand =
    incr offered;
    match Verify.errors (Verify.check_program cand) with
    | [] -> ()
    | d :: _ ->
      Alcotest.failf "candidate %d offered with %s" !offered (Epre_verify.Diag.to_string d)
  in
  let _, _, _, stats = reduce_failure ~watch swap_config (generated 11) in
  Alcotest.(check int) "every offer watched" stats.Fuzz.Reduce.tried !offered;
  Alcotest.(check bool) "candidates offered" true (!offered > 0)

(* The reducer works on any ILOC, not only what the generator lowers:
   a kernel's reduced failure is saved and replays. *)
let test_reduction_kernel () =
  let w = Option.get (Epre_workloads.Workloads.find "dot") in
  let f, _, reduced, stats = reduce_failure swap_config (Epre_workloads.Workloads.compile w) in
  Alcotest.(check bool) "kernel shrinks" true
    (stats.Fuzz.Reduce.reduced_instrs < stats.Fuzz.Reduce.original_instrs);
  let entry =
    { Fuzz.Corpus.id =
        Fuzz.Corpus.entry_id ~seed:0 ~level:f.Fuzz.Oracle.level ~cls:f.Fuzz.Oracle.cls;
      seed = 0; level = f.Fuzz.Oracle.level; cls = f.Fuzz.Oracle.cls;
      chaos = swap_config.Fuzz.Oracle.chaos_name; reduction = Some stats;
      record = Fuzz.Oracle.failure_record ~seed:0 f;
      repro_source = Ir_text.print_program reduced }
  in
  let dir = Fuzz.Corpus.save ~dir:(Helpers.fresh_dir ()) ~original:w.source entry in
  match Fuzz.Campaign.replay dir with
  | Ok (_, Fuzz.Campaign.Still_fails _) -> ()
  | Ok (_, v) -> Alcotest.failf "replay: %s" (Fuzz.Campaign.replay_result_to_string v)
  | Error m -> Alcotest.failf "replay: %s" m

(* The entries CI's chaos campaign for [spec] (two runs, seed 7) saves
   at baseline, each with its reduced program. *)
let baseline_campaign spec =
  let cfg =
    { Fuzz.Campaign.default_config with
      runs = 2; seed = 7; chaos = Some spec; levels = [ Epre.Pipeline.Baseline ];
      corpus_dir = Some (Helpers.fresh_dir ()) }
  in
  let s = Fuzz.Campaign.run cfg in
  Alcotest.(check int) (spec ^ ": entries saved") 2 (List.length s.Fuzz.Campaign.saved);
  List.map
    (fun dir ->
      match Fuzz.Corpus.load dir with
      | Ok e -> (e, Ir_text.parse_program e.Fuzz.Corpus.repro_source)
      | Error m -> Alcotest.failf "load %s: %s" dir m)
    s.Fuzz.Campaign.saved

let swap_entries = lazy (baseline_campaign "chaos:swap-operands@1")

(* A chaos reproducer stays the chaos pass's: without the chaos pass,
   each reduced swap-operands entry passes the oracle at its level. *)
let test_reduction_keeps_chaos_blame () =
  List.iter
    (fun ((e : Fuzz.Corpus.entry), prog) ->
      let clean = { Fuzz.Oracle.default_config with levels = [ e.level ] } in
      match Fuzz.Oracle.check clean prog with
      | [] -> ()
      | f :: _ ->
        Alcotest.failf "%s fails without chaos: %s at %s (%s)" e.id
          (Fuzz.Oracle.class_to_string f.cls) f.pass f.detail)
    (Lazy.force swap_entries)

(* No reproducer keeps a jump to a block that only jumps on. *)
let test_reduction_bypasses_jump_blocks () =
  List.iter
    (fun ((e : Fuzz.Corpus.entry), prog) ->
      List.iter
        (fun (r : Epre_ir.Routine.t) ->
          let cfg = r.Epre_ir.Routine.cfg in
          let live = Epre_ir.Cfg.reachable cfg in
          List.iter
            (fun (b : Epre_ir.Block.t) ->
              match b.Epre_ir.Block.term with
              | Epre_ir.Instr.Jump t when Epre_util.Bitset.mem live b.Epre_ir.Block.id -> (
                match Epre_ir.Cfg.block cfg t with
                | { Epre_ir.Block.instrs = []; term = Epre_ir.Instr.Jump _; _ } ->
                  Alcotest.failf "%s: B%d jumps to B%d, which only jumps" e.id
                    b.Epre_ir.Block.id t
                | _ -> ())
              | _ -> ())
            (Epre_ir.Cfg.blocks cfg))
        (Epre_ir.Program.routines prog))
    (baseline_campaign chaos_spec @ Lazy.force swap_entries)

(* ------------------------------------------------------------------ *)
(* Corpus + campaign                                                   *)

let test_corpus_round_trip () =
  let corpus_dir = Helpers.fresh_dir () in
  let _, _, reduced, stats = reduce_failure chaos_config (generated 11) in
  match Fuzz.Oracle.check chaos_config reduced with
  | [] -> Alcotest.fail "reduced program no longer fails"
  | f :: _ ->
    let id =
      Fuzz.Corpus.entry_id ~seed:11 ~level:f.Fuzz.Oracle.level
        ~cls:f.Fuzz.Oracle.cls
    in
    let entry =
      { Fuzz.Corpus.id; seed = 11; level = f.Fuzz.Oracle.level;
        cls = f.Fuzz.Oracle.cls; chaos = Some chaos_spec;
        reduction = Some stats;
        record =
          Fuzz.Oracle.failure_record ~seed:11 ~chaos:chaos_spec f;
        repro_source = Ir_text.print_program reduced }
    in
    let dir =
      Fuzz.Corpus.save ~dir:corpus_dir ~original:(Fuzz.Gen.source 11) entry
    in
    (match Fuzz.Corpus.load dir with
    | Error m -> Alcotest.failf "load: %s" m
    | Ok e ->
      Alcotest.(check string) "id" entry.Fuzz.Corpus.id e.Fuzz.Corpus.id;
      Alcotest.(check int) "seed" 11 e.Fuzz.Corpus.seed;
      Alcotest.(check string) "class"
        (Fuzz.Oracle.class_to_string entry.Fuzz.Corpus.cls)
        (Fuzz.Oracle.class_to_string e.Fuzz.Corpus.cls);
      Alcotest.(check (option string)) "chaos" (Some chaos_spec) e.Fuzz.Corpus.chaos;
      Alcotest.(check string) "source" entry.Fuzz.Corpus.repro_source
        e.Fuzz.Corpus.repro_source;
      (match e.Fuzz.Corpus.reduction with
      | None -> Alcotest.fail "reduction stats lost"
      | Some r ->
        Alcotest.(check int) "reduced_instrs" stats.Fuzz.Reduce.reduced_instrs
          r.Fuzz.Reduce.reduced_instrs));
    (* replay agrees with the stored signature *)
    (match Fuzz.Campaign.replay dir with
    | Error m -> Alcotest.failf "replay: %s" m
    | Ok (_, Fuzz.Campaign.Still_fails _) -> ()
    | Ok (_, verdict) ->
      Alcotest.failf "replay verdict %s"
        (Fuzz.Campaign.replay_result_to_string verdict));
    Alcotest.(check bool) "listed" true
      (List.mem entry.Fuzz.Corpus.id (Fuzz.Corpus.list ~dir:corpus_dir))

let test_campaign_deterministic () =
  let cfg = { Fuzz.Campaign.default_config with runs = 20; seed = 42 } in
  let s1 = Fuzz.Campaign.run cfg in
  let s2 = Fuzz.Campaign.run cfg in
  Alcotest.(check string) "summaries identical"
    (Fuzz.Campaign.summary_to_json s1)
    (Fuzz.Campaign.summary_to_json s2);
  Alcotest.(check int) "clean campaign" 0 s1.Fuzz.Campaign.cases_failed

let test_campaign_chaos_end_to_end () =
  let cfg =
    { Fuzz.Campaign.default_config with
      runs = 1; seed = 7; chaos = Some chaos_spec;
      levels = [ Epre.Pipeline.Baseline ];
      corpus_dir = Some (Helpers.fresh_dir ()) }
  in
  let s = Fuzz.Campaign.run cfg in
  Alcotest.(check int) "one failing case" 1 s.Fuzz.Campaign.cases_failed;
  Alcotest.(check bool) "failures reduced" true
    (s.Fuzz.Campaign.reduced = List.length s.Fuzz.Campaign.failures);
  (match s.Fuzz.Campaign.saved with
  | [] -> Alcotest.fail "nothing saved"
  | dirs ->
    List.iter
      (fun d ->
        match Fuzz.Campaign.replay d with
        | Ok (_, Fuzz.Campaign.Still_fails _) -> ()
        | Ok (_, v) ->
          Alcotest.failf "replay %s: %s" d
            (Fuzz.Campaign.replay_result_to_string v)
        | Error m -> Alcotest.failf "replay %s: %s" d m)
      dirs);
  let json = Fuzz.Campaign.summary_to_json s in
  match Epre_telemetry.Tjson.parse json with
  | Error m -> Alcotest.failf "summary is not valid JSON: %s" m
  | Ok doc ->
    (match Epre_telemetry.Tjson.member "classes" doc with
    | Some (Epre_telemetry.Tjson.Obj (_ :: _)) -> ()
    | _ -> Alcotest.fail "summary lacks class counts")

let suite =
  [
    Alcotest.test_case "generator: deterministic" `Quick test_generator_deterministic;
    Alcotest.test_case "generator: well-typed, trap-free" `Quick
      test_generator_well_formed;
    Alcotest.test_case "printer: round trip" `Quick test_printer_round_trip;
    Alcotest.test_case "oracle: clean pipelines pass" `Quick test_oracle_clean;
    Alcotest.test_case "oracle: chaos faults caught" `Quick test_oracle_catches_chaos;
    Alcotest.test_case "oracle: pinpoints the culprit" `Quick test_oracle_pinpoint;
    Alcotest.test_case "oracle: record meta provenance" `Quick
      test_failure_record_meta;
    Alcotest.test_case "reduce: chaos repro shrinks to <= 25%" `Quick
      test_reduction_quality;
    Alcotest.test_case "reduce: every candidate offered verifies" `Quick
      test_reduction_candidates_verify;
    Alcotest.test_case "reduce: a kernel's reduced failure replays" `Quick
      test_reduction_kernel;
    Alcotest.test_case "corpus: save/load/replay round trip" `Quick
      test_corpus_round_trip;
    Alcotest.test_case "campaign: deterministic summary" `Quick
      test_campaign_deterministic;
    Alcotest.test_case "campaign: chaos end to end" `Quick
      test_campaign_chaos_end_to_end;
    Alcotest.test_case "reduce: chaos repros pass the oracle without chaos" `Quick
      test_reduction_keeps_chaos_blame;
    Alcotest.test_case "reduce: no jump to a jump-only block" `Quick
      test_reduction_bypasses_jump_blocks;
  ]
