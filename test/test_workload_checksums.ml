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
   round counts, say) shows apart from a change to what they emit. A
   failure names the level and digest; if the change is deliberate,
   regenerate with the hex digests it prints. *)
let golden_optimized =
  [
    ("baseline", ("b49826e6ccbc1bba1f0219e082eb8f44", "9902b000fff60342a2958220e38d8180"));
    ("partial", ("37d6d534d63d239039865cf0bbd08b7b", "603096264245a76f03dc6c34bdce53ce"));
    ("reassociation", ("f7e426ae06ef2c4f98b05f25d0c16c11", "7d91c09b71f03246c04409f6242f3db2"));
    ("distribution", ("2a09eb4bce85d311ae8779e3509d7e8d", "94c7d05cc270e483014708f50f3cf581"));
  ]

let test_optimized_digest () =
  let module Pipeline = Epre.Pipeline in
  let md5 b = Digest.to_hex (Digest.string (Buffer.contents b)) in
  let wrong =
    List.concat_map
      (fun level ->
        let iloc = Buffer.create (1 lsl 16) and stats = Buffer.create (1 lsl 14) in
        List.iter
          (fun w ->
            let prog = Epre_workloads.Workloads.compile w in
            let s = Pipeline.optimize ~level prog in
            Buffer.add_string iloc (Ir_text.print_program prog);
            Buffer.add_string stats (Pipeline.stats_jsonl s))
          Epre_workloads.Workloads.all;
        let name = Pipeline.level_to_string level in
        let want_iloc, want_stats = List.assoc name golden_optimized in
        List.filter_map
          (fun (part, want, got) ->
            if want = got then None else Some (Printf.sprintf "%s %s (now %s)" name part got))
          [ ("ILOC", want_iloc, md5 iloc); ("stats", want_stats, md5 stats) ])
      Pipeline.all_levels
  in
  if wrong <> [] then Alcotest.failf "optimized output changed: %s" (String.concat ", " wrong)

let suite =
  Alcotest.test_case "every workload pinned" `Quick test_every_workload_has_a_golden_entry
  :: Alcotest.test_case "optimized output digest" `Quick test_optimized_digest
  :: List.map
       (fun entry ->
         Alcotest.test_case ("checksum " ^ fst entry) `Quick (check_one entry))
       golden
