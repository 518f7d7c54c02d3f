(** Golden checksums for every workload.

    The differential tests in the suite compare optimized against
    unoptimized behaviour; this file pins the unoptimized behaviour itself,
    so a silent semantic drift anywhere in the stack — lexer, parser,
    lowering, interpreter arithmetic — fails loudly. The values are exact
    (hexadecimal float literals). If a workload's source is deliberately
    changed, regenerate its entry with:

    {v
      dune exec bin/eprec.exe -- run <file> | head -1
    v}
    (or print [Value.to_string] of the return value). *)

open Epre_ir

let golden =
  [
    ("saxpy", "0x1.02p+13");
    ("dot", "0x1.4f5ap+16");
    ("sgemv", "-0x1.ae8p+13");
    ("sgemm", "0x1.76p+18");
    ("fmin", "0x1.00000020ecf9ap+1");
    ("zeroin", "0x1.0c1a4350819ep+1");
    ("spline", "0x1.5555555555556p+3");
    ("seval", "0x1.1aa08p+11");
    ("decomp", "0x1.18a60172cc1fap+48");
    ("solve", "0x1.df32ef9583c3ap+1");
    ("urand", "0x1.a0c319a32p+6");
    ("fehl", "0x1.8bb8d517b7a53p-1");
    ("tomcatv", "-0x1.8efbb0e5e6794p-4");
    ("heat", "0x1.63af7cbp+11");
    ("stencil3", "0x1.75171abb57af6p+10");
    ("iniset", "0x1.52acp+16");
    ("x21y21", "0x1.1194c06f02ed4p+8");
    ("hmoy", "0x1.758aa957e3e0bp+5");
    ("bilin", "0x1.ac6ffffffffffp+10");
    ("series", "0x1.fa11b8ff5008cp+9");
    ("addr_chain", "0x1.ab608p+21");
    ("pdead", "0x1.546ep+18");
    ("integr", "0x1.921fb54442d03p-1");
    ("newton", "0x1.41d0376573ee7p+7");
    ("tridiag", "0x1.218424f30e32bp+9");
    ("cholesky", "0x1.5742789788ac2p+5");
    ("sor", "0x1.124cf635e709bp+1");
    ("conv", "0x1.92627d27d27d4p+8");
    ("histogram", "18900");
    ("horner", "0x1.577998c7e2826p+7");
    ("power", "0x1.81442779994f3p+3");
    ("romberg", "0x1.3058b5e66416bp-1");
    ("mandel", "6044");
    ("gaussj", "0x1.429313063f9ecp-1");
    ("blocked", "-0x1.41cp+11");
    ("givens", "0x1.7bbb9cf035619p+7");
    ("blas1", "0x1.7e0f0079df60ep+10");
    ("wave", "0x1.1244e119207a8p+2");
    ("crout", "0x1.21f843e131fb5p+7");
    ("rk4", "0x1.538cd85e9c3e2p+2");
    ("secant", "0x1.7a695dd83d1acp-1");
    ("lagrange", "0x1.c52p+7");
    ("redblack", "0x1.aade591fb6668p+5");
    ("cumsum", "0x1.1eb851eb851ecp+3");
    ("transpose", "0x1.0e6dbap+18");
    ("stats", "0x1.3fd6e1535eabdp+6");
    ("sieve", "7813887");
    ("euclid", "1313");
    ("collatz", "4073");
    ("smooth3", "0x1.1844b66d902fdp+14");
  ]

let test_every_workload_has_a_golden_entry () =
  List.iter
    (fun w ->
      if not (List.mem_assoc w.Epre_workloads.Workloads.name golden) then
        Alcotest.failf "no golden checksum for %s" w.Epre_workloads.Workloads.name)
    Epre_workloads.Workloads.all;
  Alcotest.(check int) "entry count" (List.length Epre_workloads.Workloads.all)
    (List.length golden)

let check_one (name, expected) () =
  match Epre_workloads.Workloads.find name with
  | None -> Alcotest.failf "golden entry for unknown workload %s" name
  | Some w ->
    let prog = Epre_workloads.Workloads.compile w in
    let v, _, _ = Epre_workloads.Workloads.execute prog in
    (match v with
    | Some value -> Alcotest.(check string) name expected (Value.to_string value)
    | None -> Alcotest.failf "%s returned nothing" name)

(* Optimized output, pinned: per level, an MD5 over every kernel's
   optimized ILOC text and one over its per-routine stats JSONL, kernels
   in [Workloads.all] order, so a change to what the passes report (PRE
   round counts, say) shows apart from a change to what they emit. The
   "pre-classic" row pins the block-end PRE engine the same way: naming
   then [Pre.run_classic] on every routine, one line of [Pre.stats] per
   routine. A failure names the level and digest; if the change is
   deliberate, regenerate with the hex digests it prints. *)
let golden_optimized =
  [
    ("baseline", ("b49826e6ccbc1bba1f0219e082eb8f44", "9902b000fff60342a2958220e38d8180"));
    ("partial", ("37d6d534d63d239039865cf0bbd08b7b", "603096264245a76f03dc6c34bdce53ce"));
    ("reassociation", ("f7e426ae06ef2c4f98b05f25d0c16c11", "7d91c09b71f03246c04409f6242f3db2"));
    ("distribution", ("2a09eb4bce85d311ae8779e3509d7e8d", "94c7d05cc270e483014708f50f3cf581"));
    ("pre-classic", ("7b5a97e326b16fafc8355191806923a5", "2ce47aa5248754a037b431b8f6b7e0fc"));
  ]

(* The registry passes no level runs, pinned by their ILOC alone: per
   pass, an MD5 over every kernel's ILOC after that pass has run on every
   routine of the freshly compiled program, kernels in [Workloads.all]
   order. They are the only level-free readers of [Postdom] ([adce]),
   [Loops] ([strength]) and [Dom] ([dvnt], [cse-dom]). *)
let golden_registry =
  [
    ("adce", "f89d3800cb20c798c2493bb1e9937215");
    ("strength", "1cdfca1f95e3a4e1127bb4ec662e2f47");
    ("dvnt", "4fddbfe08873111ddb7d13d486d21f0c");
    ("cse-dom", "aed17772cd8c4e3258e53806af913035");
  ]

let registry_digest name =
  let pass = Epre.Passes.to_named (Option.get (Epre.Passes.find name)) in
  let iloc = Buffer.create (1 lsl 16) in
  List.iter
    (fun w ->
      let prog = Epre_workloads.Workloads.compile w in
      List.iter pass.Epre_harness.Harness.run (Program.routines prog);
      Buffer.add_string iloc (Ir_text.print_program prog))
    Epre_workloads.Workloads.all;
  Digest.to_hex (Digest.string (Buffer.contents iloc))

let classic_digests () =
  let iloc = Buffer.create (1 lsl 16) and stats = Buffer.create (1 lsl 12) in
  List.iter
    (fun w ->
      let prog = Epre_workloads.Workloads.compile w in
      List.iter
        (fun r ->
          ignore (Epre_opt.Naming.run r);
          let s = Epre_pre.Pre.run_classic r in
          Printf.bprintf stats "%s %s %d %d %d %d\n" w.Epre_workloads.Workloads.name
            r.Routine.name s.Epre_pre.Pre.inserted s.Epre_pre.Pre.deleted
            s.Epre_pre.Pre.cse_deleted s.Epre_pre.Pre.rounds)
        (Program.routines prog);
      Buffer.add_string iloc (Ir_text.print_program prog))
    Epre_workloads.Workloads.all;
  (iloc, stats)

let test_optimized_digest () =
  let module Pipeline = Epre.Pipeline in
  let md5 b = Digest.to_hex (Digest.string (Buffer.contents b)) in
  let level_digests level () =
    let iloc = Buffer.create (1 lsl 16) and stats = Buffer.create (1 lsl 14) in
    List.iter
      (fun w ->
        let prog = Epre_workloads.Workloads.compile w in
        let s = Pipeline.optimize ~level prog in
        Buffer.add_string iloc (Ir_text.print_program prog);
        Buffer.add_string stats (Pipeline.stats_jsonl s))
      Epre_workloads.Workloads.all;
    (iloc, stats)
  in
  let wrong =
    List.concat_map
      (fun (name, digests) ->
        let iloc, stats = digests () in
        let want_iloc, want_stats = List.assoc name golden_optimized in
        List.filter_map
          (fun (part, want, got) ->
            if want = got then None else Some (Printf.sprintf "%s %s (now %s)" name part got))
          [ ("ILOC", want_iloc, md5 iloc); ("stats", want_stats, md5 stats) ])
      (List.map (fun l -> (Pipeline.level_to_string l, level_digests l)) Pipeline.all_levels
      @ [ ("pre-classic", classic_digests) ])
  in
  let wrong =
    wrong
    @ List.filter_map
        (fun (name, want) ->
          let got = registry_digest name in
          if want = got then None else Some (Printf.sprintf "%s ILOC (now %s)" name got))
        golden_registry
  in
  if wrong <> [] then Alcotest.failf "optimized output changed: %s" (String.concat ", " wrong)

(* Exec-tier supervision records, pinned: per level, an MD5 over the
   records [Pipeline.optimize_supervised] returns at the [Exec] tier for
   every kernel in [Workloads.all] order, [duration_ms] dropped, once
   plain and once with [chaos:swap-operands@1] spliced in. The chaos run's
   rollback reasons quote the interpreter's observations and error texts,
   so this holds the exec tier to its exact outcomes. A third digest per
   run covers the [verify.<rule>] counters the run left in
   [Metrics.snapshot] (reset before it), so a verdict the harness replays
   must bump them exactly as a fresh check would. *)
let golden_exec_records =
  [
    ("baseline", ("2fba59b0791038f42cdd7be558d061cc", "e5050accf4cd09ea018b17aaefc778cb"));
    ("partial", ("82fc290484b0f8d1ce448e706c1959b6", "d5a73176b44746257ee0bebc076a03aa"));
    ("reassociation", ("bf283afb3457c95dfc7ccabf187a214e", "4883baf109d0fec96c5f285ee4c30978"));
    ("distribution", ("bf283afb3457c95dfc7ccabf187a214e", "7c3d722d3e8601cf6233f2350b0218f6"));
  ]

let golden_verify_counters =
  [
    ("baseline", ("d41d8cd98f00b204e9800998ecf8427e", "d41d8cd98f00b204e9800998ecf8427e"));
    ("partial", ("64090f00f4cd33536a054df71661fb5c", "f24bc1d26bb855cd8022252a61e4603d"));
    ("reassociation", ("f24bc1d26bb855cd8022252a61e4603d", "0e38304276b220a604b4981740025edc"));
    ("distribution", ("f24bc1d26bb855cd8022252a61e4603d", "0e38304276b220a604b4981740025edc"));
  ]

let exec_records_digest ~level ~inject =
  let module Harness = Epre_harness.Harness in
  let module Metrics = Epre_telemetry.Metrics in
  let config = { Harness.default_config with Harness.validation = Harness.Exec } in
  let buf = Buffer.create (1 lsl 16) in
  Metrics.reset ();
  List.iter
    (fun w ->
      let prog = Epre_workloads.Workloads.compile w in
      let _, records = Epre.Pipeline.optimize_supervised ~inject ~config ~level prog in
      List.iter
        (fun r ->
          let fields =
            match Epre_harness.Report.record_to_tjson r with
            | Epre_telemetry.Tjson.Obj fs -> List.filter (fun (k, _) -> k <> "duration_ms") fs
            | _ -> assert false
          in
          Buffer.add_string buf w.Epre_workloads.Workloads.name;
          Buffer.add_char buf ' ';
          Buffer.add_string buf (Epre_telemetry.Tjson.to_string (Epre_telemetry.Tjson.Obj fields));
          Buffer.add_char buf '\n')
        records)
    Epre_workloads.Workloads.all;
  let counters = Buffer.create 4096 in
  List.iter
    (fun (e : Metrics.entry) ->
      if String.starts_with ~prefix:"verify." e.Metrics.name then
        Printf.bprintf counters "%s %s %d\n" e.Metrics.routine e.Metrics.name e.Metrics.value)
    (Metrics.snapshot ());
  let md5 b = Digest.to_hex (Digest.string (Buffer.contents b)) in
  (md5 buf, md5 counters)

let test_exec_records_digest () =
  let module Pipeline = Epre.Pipeline in
  let chaos =
    match Epre_harness.Chaos.parse_spec "chaos:swap-operands@1" with
    | Ok spec -> spec
    | Error m -> Alcotest.fail m
  in
  let wrong =
    List.concat_map
      (fun level ->
        let name = Pipeline.level_to_string level in
        let want_plain, want_chaos = List.assoc name golden_exec_records in
        let want_plain_counters, want_chaos_counters = List.assoc name golden_verify_counters in
        let plain, plain_counters = exec_records_digest ~level ~inject:[] in
        let chaotic, chaos_counters = exec_records_digest ~level ~inject:[ chaos ] in
        List.filter_map
          (fun (part, want, got) ->
            if want = got then None else Some (Printf.sprintf "%s %s (now %s)" name part got))
          [ ("plain", want_plain, plain);
            ("chaos", want_chaos, chaotic);
            ("plain counters", want_plain_counters, plain_counters);
            ("chaos counters", want_chaos_counters, chaos_counters) ])
      Pipeline.all_levels
  in
  if wrong <> [] then Alcotest.failf "exec-tier records changed: %s" (String.concat ", " wrong)

let suite =
  Alcotest.test_case "every workload pinned" `Quick test_every_workload_has_a_golden_entry
  :: Alcotest.test_case "optimized output digest" `Quick test_optimized_digest
  :: Alcotest.test_case "exec-tier records digest" `Slow test_exec_records_digest
  :: List.map
       (fun entry ->
         Alcotest.test_case ("checksum " ^ fst entry) `Quick (check_one entry))
       golden
