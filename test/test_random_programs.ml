(** Differential testing on randomly generated programs.

    The programs come from the fuzz subsystem's seeded generator
    ([Epre_fuzz.Gen] — float scalars and arrays, a 2-D array, helper
    routine calls, [while] and [downto]/[step] loops, guarded division
    and subscripts); QCheck supplies the seeds, so a failure prints the
    one integer that reproduces it (`eprec fuzz` replays it). Every
    optimization level and every individual pass must preserve the
    program's return value and [emit] trace — up to the harness's
    float-reassociation tolerance, since the generated programs exercise
    floating point. This is the heavy artillery that guards the whole
    pipeline (SSA round trips, PRE insertions, GVN renaming,
    reassociation, coalescing) against miscompilation. *)

open QCheck2

let gen_seed = Gen.int_range 0 1_000_000_000

let compile seed =
  Epre_frontend.Frontend.compile_string (Epre_fuzz.Gen.source seed)

let fuel = 4_000_000

let observe prog = Epre_harness.Harness.observe ~fuel prog

let level_preserves level =
  Helpers.qcheck_case ~count:100 "random programs"
    (Epre.Pipeline.level_to_string level ^ " preserves behaviour")
    gen_seed
    (fun seed ->
      let prog = compile seed in
      let reference = observe prog in
      let optimized, _ = Epre.Pipeline.optimized_copy ~level prog in
      Epre_harness.Harness.obs_equal reference (observe optimized))

let pass_preserves name pass =
  Helpers.qcheck_case ~count:100 "random programs" (name ^ " preserves behaviour")
    gen_seed
    (fun seed ->
      let prog = compile seed in
      let reference = observe prog in
      let p = Epre_ir.Program.copy prog in
      List.iter (fun r -> pass r) (Epre_ir.Program.routines p);
      Epre_harness.Harness.obs_equal reference (observe p))

(* The Section 5.3 hierarchy as a property: counted in expression
   evaluations (arithmetic, constants and loads, the measure of
   [test_pre.ml]'s never-lengthens check), edge placement is never worse
   than block-end placement, which is never worse than available-expression
   CSE. Each engine runs after [Naming] and is followed by [Clean] only:
   the full cleanup tail can reverse the order on some programs (see
   DESIGN.md, "The Section 5.3 hierarchy over generated programs"). *)
let hierarchy_holds =
  Helpers.qcheck_case ~count:200 "random programs" "pre <= pre-classic <= cse-avail"
    gen_seed
    (fun seed ->
      let prog = compile seed in
      let evaluations engine =
        let p = Epre_ir.Program.copy prog in
        List.iter
          (fun r ->
            ignore (Epre_opt.Naming.run r);
            engine r;
            ignore (Epre_opt.Clean.run r))
          (Epre_ir.Program.routines p);
        let c = (Epre_interp.Interp.run ~fuel p ~entry:"main" ~args:[]).Epre_interp.Interp.counts in
        c.Epre_interp.Counts.arith + c.Epre_interp.Counts.consts + c.Epre_interp.Counts.loads
      in
      let edge = evaluations (fun r -> ignore (Epre_pre.Pre.run r)) in
      let block_end = evaluations (fun r -> ignore (Epre_pre.Pre.run_classic r)) in
      let cse = evaluations (fun r -> ignore (Epre_opt.Cse_avail.run r)) in
      edge <= block_end && block_end <= cse)

let suite =
  [
    pass_preserves "ssa round trip" (fun r ->
        ignore (Epre_ssa.Ssa.build r);
        ignore (Epre_ssa.Ssa.destroy r));
    pass_preserves "sccp" (fun r -> ignore (Epre_opt.Constprop.run r));
    pass_preserves "peephole" (fun r ->
        ignore (Epre_opt.Peephole.run ~config:{ Epre_opt.Peephole.mul_to_shift = true } r));
    pass_preserves "dce+coalesce+clean" (fun r ->
        ignore (Epre_opt.Dce.run r);
        ignore (Epre_opt.Coalesce.run r);
        ignore (Epre_opt.Clean.run r));
    pass_preserves "naming+pre" (fun r ->
        ignore (Epre_opt.Naming.run r);
        ignore (Epre_pre.Pre.run r));
    pass_preserves "cse_dom" (fun r -> ignore (Epre_opt.Cse_dom.run r));
    pass_preserves "dvnt" (fun r -> ignore (Epre_opt.Dvnt.run r));
    pass_preserves "adce+clean" (fun r ->
        ignore (Epre_opt.Adce.run r);
        ignore (Epre_opt.Clean.run r));
    pass_preserves "strength" (fun r -> ignore (Epre_opt.Strength.run r));
    pass_preserves "pre_classic" (fun r ->
        ignore (Epre_opt.Naming.run r);
        ignore (Epre_pre.Pre.run_classic r));
    pass_preserves "naming+cse_avail" (fun r ->
        ignore (Epre_opt.Naming.run r);
        ignore (Epre_opt.Cse_avail.run r));
    pass_preserves "reassociate+distribute" (fun r ->
        ignore
          (Epre_reassoc.Reassociate.run
             ~config:{ Epre_reassoc.Expr_tree.reassoc_float = true; distribute = true }
             r));
    pass_preserves "gvn" (fun r -> ignore (Epre_gvn.Gvn.run r));
    hierarchy_holds;
    level_preserves Epre.Pipeline.Baseline;
    level_preserves Epre.Pipeline.Partial;
    level_preserves Epre.Pipeline.Reassociation;
    level_preserves Epre.Pipeline.Distribution;
  ]
