(** Integration tests: every workload at every optimization level must
    preserve behaviour, and the levels must relate the way the paper's
    Table 1 says they do in aggregate. *)


let levels = Epre.Pipeline.all_levels

let test_workload w () =
  let prog = Epre_workloads.Workloads.compile w in
  List.iter
    (fun level -> ignore (Helpers.check_level ~level prog))
    levels

let dynamic_at level prog =
  let p, _ = Epre.Pipeline.optimized_copy ~level prog in
  Helpers.dynamic_ops p

let test_partial_beats_baseline_in_aggregate () =
  (* PRE's wins are the paper's headline: summed over the suite it must
     clearly beat the baseline. *)
  let base = ref 0 and partial = ref 0 in
  List.iter
    (fun w ->
      let prog = Epre_workloads.Workloads.compile w in
      base := !base + dynamic_at Epre.Pipeline.Baseline prog;
      partial := !partial + dynamic_at Epre.Pipeline.Partial prog)
    Epre_workloads.Workloads.all;
  Alcotest.(check bool)
    (Printf.sprintf "partial %d < baseline %d" !partial !base)
    true
    (float_of_int !partial < 0.8 *. float_of_int !base)

let test_reassociation_helps_in_aggregate () =
  (* Section 4's second claim: reassociation + GVN + distribution improve
     further over PRE alone, summed over the suite (individual routines may
     regress — Table 1 shows the same). *)
  let partial = ref 0 and distribution = ref 0 in
  List.iter
    (fun w ->
      let prog = Epre_workloads.Workloads.compile w in
      partial := !partial + dynamic_at Epre.Pipeline.Partial prog;
      distribution := !distribution + dynamic_at Epre.Pipeline.Distribution prog)
    Epre_workloads.Workloads.all;
  Alcotest.(check bool)
    (Printf.sprintf "distribution %d < partial %d" !distribution !partial)
    true
    (!distribution < !partial)

let test_stats_populated () =
  let prog = Epre_workloads.Workloads.compile (List.hd Epre_workloads.Workloads.all) in
  let _, stats = Epre.Pipeline.optimized_copy ~level:Epre.Pipeline.Distribution prog in
  List.iter
    (fun s ->
      Alcotest.(check bool) "reassoc stats present" true (Option.is_some s.Epre.Pipeline.reassoc);
      Alcotest.(check bool) "gvn stats present" true (Option.is_some s.Epre.Pipeline.gvn);
      Alcotest.(check bool) "pre stats present" true (Option.is_some s.Epre.Pipeline.pre))
    stats;
  let _, stats = Epre.Pipeline.optimized_copy ~level:Epre.Pipeline.Baseline prog in
  List.iter
    (fun s ->
      Alcotest.(check bool) "no pre at baseline" true (Option.is_none s.Epre.Pipeline.pre))
    stats

let test_dump_hooks_fire () =
  let prog = Helpers.compile "fn main(): int { return 1 + 2; }" in
  let seen = ref [] in
  let dump name _ = seen := name :: !seen in
  ignore (Epre.Pipeline.optimize ~dump ~level:Epre.Pipeline.Distribution prog);
  List.iter
    (fun stage ->
      Alcotest.(check bool) (stage ^ " dumped") true (List.mem stage !seen))
    [ "reassociation"; "gvn"; "pre"; "constprop"; "peephole"; "dce"; "coalesce"; "clean" ]

let test_hierarchy_is_monotone () =
  (* Section 5.3: dominator CSE >= available CSE >= PRE on every workload. *)
  List.iter
    (fun w ->
      let row = Epre.Experiments.hierarchy_row w in
      Alcotest.(check bool)
        (Printf.sprintf "%s: dom %d >= avail %d" row.Epre.Experiments.name
           row.Epre.Experiments.dom_cse row.Epre.Experiments.avail_cse)
        true
        (row.Epre.Experiments.dom_cse >= row.Epre.Experiments.avail_cse);
      Alcotest.(check bool)
        (Printf.sprintf "%s: avail %d >= pre %d" row.Epre.Experiments.name
           row.Epre.Experiments.avail_cse row.Epre.Experiments.pre)
        true
        (row.Epre.Experiments.avail_cse >= row.Epre.Experiments.pre))
    (List.filteri (fun i _ -> i mod 4 = 0) Epre_workloads.Workloads.all)

let test_table2_expansion_sane () =
  (* Forward propagation grows code; the factor stays in a sane band (the
     paper's totals entry is 1.269). *)
  let rows = Epre.Experiments.table2 () in
  let tb = List.fold_left (fun a r -> a + r.Epre.Experiments.before) 0 rows in
  let ta = List.fold_left (fun a r -> a + r.Epre.Experiments.after) 0 rows in
  let factor = float_of_int ta /. float_of_int tb in
  Alcotest.(check bool)
    (Printf.sprintf "total expansion %.3f in [1.0, 2.0]" factor)
    true
    (factor >= 1.0 && factor <= 2.0)

let suite =
  List.map
    (fun w ->
      Alcotest.test_case
        (Printf.sprintf "workload %s at all levels" w.Epre_workloads.Workloads.name)
        `Slow (test_workload w))
    Epre_workloads.Workloads.all
  @ [
      Alcotest.test_case "table1 shape: PRE beats baseline" `Slow
        test_partial_beats_baseline_in_aggregate;
      Alcotest.test_case "table1 shape: reassociation helps" `Slow
        test_reassociation_helps_in_aggregate;
      Alcotest.test_case "per-pass stats populated" `Quick test_stats_populated;
      Alcotest.test_case "dump hooks fire per pass" `Quick test_dump_hooks_fire;
      Alcotest.test_case "5.3 hierarchy monotone" `Slow test_hierarchy_is_monotone;
      Alcotest.test_case "table2 expansion in band" `Slow test_table2_expansion_sane;
    ]
