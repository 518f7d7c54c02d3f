(** Tests for the fuzz subsystem ([Epre_fuzz]): generator determinism and
    invariants, the source printer round trip, the differential oracle's
    two verdict directions (clean pipelines pass, chaos-injected
    pipelines fail), reduction quality (the ≤25%% acceptance bar), the
    corpus round trip, replay, and campaign determinism. *)

module Fuzz = Epre_fuzz
module Ast = Epre_frontend.Ast
module Ast_ops = Epre_frontend.Ast_ops
module Frontend = Epre_frontend.Frontend
module Harness = Epre_harness.Harness

let compile_ast ast =
  Frontend.compile_string (Ast_ops.print_program ast)

(* A couple of dozen seeds keeps this suite quick; `eprec fuzz` covers
   breadth in CI. *)
let seeds = List.init 25 (fun i -> 31 * i)

let chaos_spec = "chaos:drop-instr@2"

let chaos_config =
  { Fuzz.Oracle.default_config with
    chaos =
      (match Fuzz.Campaign.parse_chaos chaos_spec with
      | Ok c -> Some c
      | Error m -> failwith m);
    chaos_name = Some chaos_spec;
    fuel = 1_000_000 }

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

let test_ast_ops_indexing () =
  let ast =
    Frontend.parse_string
      "fn main(): int {\n  var x: int = 1;\n  if (x > 0) {\n    x = x + 2;\n  }\n  return x;\n}\n"
  in
  Alcotest.(check int) "stmt count" 4 (Ast_ops.stmt_count ast);
  (* Delete the [if] (index 1): its body goes with it. *)
  let deleted =
    Option.get (Ast_ops.transform_stmt ast 1 (fun _ -> Some []))
  in
  Alcotest.(check int) "after delete" 2 (Ast_ops.stmt_count deleted);
  (* Hoist its body instead. *)
  let hoisted =
    Option.get
      (Ast_ops.transform_stmt ast 1 (fun s ->
           match s.Ast.desc with
           | Ast.If (_, t, e) -> Some (t @ e)
           | _ -> None))
  in
  Alcotest.(check int) "after hoist" 3 (Ast_ops.stmt_count hoisted);
  Alcotest.(check (option pass)) "out of range" None
    (Ast_ops.transform_stmt ast 99 (fun _ -> Some []))

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
        ~repro:"corpus/x/repro.mf" f
    in
    let json = Epre_harness.Report.record_to_json record in
    List.iter
      (fun needle ->
        if not (Helpers.contains_substring ~needle json) then
          Alcotest.failf "record %s lacks %S" json needle)
      [ "\"fuzz_seed\":7"; "\"fuzz_level\":"; "\"fuzz_class\":";
        "\"fuzz_chaos\":\"chaos:drop-instr@2\"";
        "\"fuzz_repro\":\"corpus/x/repro.mf\"" ]

(* ------------------------------------------------------------------ *)
(* Reduction (the acceptance bar: chaos repro shrinks to <= 25%)       *)

let reduce_chaos_failure seed =
  let ast = Fuzz.Gen.program seed in
  let prog = compile_ast ast in
  match Fuzz.Oracle.check chaos_config prog with
  | [] -> Alcotest.failf "seed %d: chaos fault not detected" seed
  | f :: _ ->
    let still =
      Fuzz.Campaign.still_fails chaos_config ~level:f.Fuzz.Oracle.level
        ~cls:f.Fuzz.Oracle.cls
    in
    let reduced, stats = Fuzz.Reduce.run ~still_fails:still ast in
    (f, still, reduced, stats)

let test_reduction_quality () =
  let _, still, reduced, stats = reduce_chaos_failure 42 in
  Alcotest.(check bool) "reduced still fails" true (still reduced);
  let ratio =
    float_of_int stats.Fuzz.Reduce.reduced_stmts
    /. float_of_int stats.Fuzz.Reduce.original_stmts
  in
  if ratio > 0.25 then
    Alcotest.failf "reduction too weak: %d -> %d statements (%.0f%%)"
      stats.Fuzz.Reduce.original_stmts stats.Fuzz.Reduce.reduced_stmts
      (100. *. ratio);
  Alcotest.(check bool) "reducer reports progress" true
    (stats.Fuzz.Reduce.accepted > 0 && stats.Fuzz.Reduce.tried >= stats.Fuzz.Reduce.accepted)

(* ------------------------------------------------------------------ *)
(* Corpus + campaign                                                   *)

let test_corpus_round_trip () =
  let corpus_dir = Helpers.fresh_dir () in
  let _, _, reduced, stats = reduce_chaos_failure 11 in
  let prog = compile_ast reduced in
  match Fuzz.Oracle.check { chaos_config with pinpoint = false } prog with
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
        repro_source = Ast_ops.print_program reduced }
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
        Alcotest.(check int) "reduced_stmts" stats.Fuzz.Reduce.reduced_stmts
          r.Fuzz.Reduce.reduced_stmts));
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

let test_parse_chaos_errors () =
  (match Fuzz.Campaign.parse_chaos "chaos:drop-instr@banana" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad position accepted");
  match Fuzz.Campaign.parse_chaos "not-a-pass" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown pass accepted"

let suite =
  [
    Alcotest.test_case "generator: deterministic" `Quick test_generator_deterministic;
    Alcotest.test_case "generator: well-typed, trap-free" `Quick
      test_generator_well_formed;
    Alcotest.test_case "printer: round trip" `Quick test_printer_round_trip;
    Alcotest.test_case "ast ops: indexed edits" `Quick test_ast_ops_indexing;
    Alcotest.test_case "oracle: clean pipelines pass" `Quick test_oracle_clean;
    Alcotest.test_case "oracle: chaos faults caught" `Quick test_oracle_catches_chaos;
    Alcotest.test_case "oracle: pinpoints the culprit" `Quick test_oracle_pinpoint;
    Alcotest.test_case "oracle: record meta provenance" `Quick
      test_failure_record_meta;
    Alcotest.test_case "reduce: chaos repro shrinks to <= 25%" `Quick
      test_reduction_quality;
    Alcotest.test_case "corpus: save/load/replay round trip" `Quick
      test_corpus_round_trip;
    Alcotest.test_case "campaign: deterministic summary" `Quick
      test_campaign_deterministic;
    Alcotest.test_case "campaign: chaos end to end" `Quick
      test_campaign_chaos_end_to_end;
    Alcotest.test_case "campaign: chaos spec errors" `Quick test_parse_chaos_errors;
  ]
