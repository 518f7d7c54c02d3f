(* eprec: command-line driver for the Effective PRE optimizer.

   Subcommands:
     compile   compile a source file, optimize at a chosen level, dump ILOC
     run       compile, optimize, interpret; report result and dynamic counts
     bisect    shrink a failing pass sequence to the minimal offending prefix
     fuzz      differentially fuzz the optimizer; reduce and persist failures
     table1    regenerate the paper's Table 1
     table2    regenerate the paper's Table 2 (forward-propagation expansion)
     hierarchy regenerate the Section 5.3 CSE-hierarchy comparison
     verify    run the static verifier (structural + type rules) over a
               program, a workload or the whole suite, at any level
     lint      verify plus the L0xx lint rules
     analyze   audit PRE effectiveness (A0xx rules): residual redundancy,
               down-safety, path lengths and register pressure
     passes    list the pass registry (including the chaos:* fault injectors)
     workloads list or differentially check the built-in workload suite
     serve     batch compile server: JSON jobs on stdin, parallel + cached,
               JSON results on stdout

   Parallelism (serve, workloads --check, fuzz):
     --jobs N          domains running jobs, the submitting one included
                       (N - 1 spawned workers; default: recommended
                       domain count)

   Supervision flags (compile, run, workloads --check):
     --safe            roll a failing pass back and keep optimizing
     --validate=TIER   off | ir | exec (translation validation)
     --report=json     emit per-pass outcome records
     --chaos NAME[@N]  inject a fault pass at position N of the pipeline

   Telemetry flags (compile, run, workloads, verify, lint, analyze, fuzz,
   serve):
     --trace-out FILE  write a Chrome trace-event JSON of the run's spans
     --profile         per-pass wall-clock profile summary on stderr
     --metrics=json    per-routine pipeline stats + counters, JSONL on stderr *)

open Cmdliner

(* A program file: ILOC text when it ends in .iloc, else mini-language
   source. A parse or validation error is one "path:line: message" line
   and exit 1. *)
let compile_source path =
  match Epre_service.Service.load_program (Epre_service.Service.File path) with
  | Ok prog -> prog
  | Error m ->
    Fmt.epr "%s@." m;
    exit 1

(* The program named by FILE or --workload NAME, as a compile thunk (each
   use gets a fresh program). [usage] is the error for any other
   combination. *)
let program_input ~usage file workload =
  match (file, workload) with
  | Some f, None -> (Filename.basename f, fun () -> compile_source f)
  | None, Some name -> begin
    match Epre_workloads.Workloads.find name with
    | Some w -> (name, fun () -> Epre_workloads.Workloads.compile w)
    | None ->
      Fmt.epr "unknown workload %S (see `eprec workloads`)@." name;
      exit 1
  end
  | _ ->
    Fmt.epr "%s@." usage;
    exit 1

(* [program_input], or every built-in workload with [workloads]. *)
let program_inputs ~usage file workload workloads =
  match (file, workload, workloads) with
  | None, None, true ->
    List.map
      (fun w ->
        ( w.Epre_workloads.Workloads.name,
          fun () -> Epre_workloads.Workloads.compile w ))
      Epre_workloads.Workloads.all
  | _, _, false -> [ program_input ~usage file workload ]
  | _ ->
    Fmt.epr "%s@." usage;
    exit 1

(* A converter from an [of_string]/[to_string] pair; [noun] names the
   value in the error for an unknown one. *)
let conv ~noun of_string to_string =
  let parse s =
    match of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown %s %S" noun s))
  in
  Arg.conv (parse, fun ppf v -> Fmt.string ppf (to_string v))

let level_conv =
  conv ~noun:"level" Epre.Pipeline.level_of_string Epre.Pipeline.level_to_string

let level_arg =
  Arg.(
    value
    & opt (some level_conv) None
    & info [ "O"; "level" ] ~docv:"LEVEL"
        ~doc:
          "Optimization level: $(b,baseline), $(b,partial), \
           $(b,reassociation) or $(b,distribution). Omit for unoptimized \
           output.")

let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ] ~doc:"Dump the IR after every optimizer pass (to stderr).")

let passes_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "passes" ] ~docv:"P1,P2,..."
        ~doc:
          "Run a custom comma-separated pass sequence instead of a level; \
           see $(b,eprec passes) for the registry.")

(* --- supervision flags ------------------------------------------------- *)

let safe_arg =
  Arg.(
    value & flag
    & info [ "safe" ]
        ~doc:
          "Supervise the pipeline: run every pass against a checkpoint, \
           roll a failing pass back and continue with the rest (see also \
           $(b,--validate)).")

let validate_arg =
  let validate_conv =
    conv ~noun:"validation tier" Epre_harness.Harness.validation_of_string
      Epre_harness.Harness.validation_to_string
  in
  Arg.(
    value
    & opt (some validate_conv) None
    & info [ "validate" ] ~docv:"TIER"
        ~doc:
          "Per-pass validation tier: $(b,off) (exceptions only), $(b,ir) \
           (structural + SSA well-formedness) or $(b,exec) (translation \
           validation of observable behaviour). Implies supervision; \
           without $(b,--safe) the first failure aborts.")

let report_arg =
  Arg.(
    value
    & opt (some (enum [ ("json", `Json) ])) None
    & info [ "report" ] ~docv:"FMT"
        ~doc:
          "Emit per-pass outcome records (pass, routine, ok/rolled-back, \
           reason, timing). Only $(b,json).")

let chaos_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ] ~docv:"NAME[@POS]"
        ~doc:
          "Inject a $(b,chaos:*) fault pass at position POS (default 0) of \
           the level's pipeline; requires supervision to survive. See \
           $(b,eprec passes).")

(* Sets the fault injectors' seed when the command line is evaluated, so
   every command that takes the flag seeds the same way. *)
let chaos_seed_arg =
  let set = Option.iter (fun s -> Epre_harness.Chaos.default_seed := s) in
  Term.(
    const set
    $ Arg.(
        value
        & opt (some int) None
        & info [ "chaos-seed" ] ~docv:"N"
            ~doc:"Seed for the chaos fault injectors (replayable corruption)."))

let audit_arg =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:
          "Run the redundancy auditor after each audited pass (the \
           $(b,A0xx) rule family: residual redundancy, down-safety, \
           pressure). Findings land in the supervision report's meta and \
           the $(b,analyze.*) telemetry counters; they never roll a pass \
           back. Implies supervision.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print per-routine pass statistics (renamed expression sites, \
           constants folded, rewrites, ...) to stderr; with \
           $(b,--metrics=json) they come as JSON records instead.")

(* --- parallelism ------------------------------------------------------- *)

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domains that run jobs in parallel, counting the submitting \
           domain, which works while it waits: $(b,N) spawns $(b,N-1) \
           worker domains, so $(b,N) cores are never oversubscribed \
           (default: the machine's recommended domain count; $(b,1) \
           spawns none and runs the serial reference path).")

let effective_jobs = function
  | Some n -> max 1 n
  | None -> Epre_service.Pool.default_jobs ()

(* --- telemetry flags --------------------------------------------------- *)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file of the run's telemetry \
           spans (per-stage wall clock, allocation and IR size deltas); \
           open it in Perfetto (ui.perfetto.dev) or chrome://tracing.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Print a per-pass wall-clock profile (call counts, totals sorted \
           descending, share of pipeline time) to stderr.")

let metrics_arg =
  Arg.(
    value
    & opt (some (enum [ ("json", `Json) ])) None
    & info [ "metrics" ] ~docv:"FMT"
        ~doc:
          "Emit one-line-per-record JSON metrics to stderr: the per-routine \
           pipeline statistics (see $(b,--stats)) followed by the counters \
           registry. Only $(b,json).")

type telemetry_opts = {
  trace_out : string option;
  profile : bool;
  metrics : [ `Json ] option;
}

let telemetry_term =
  let mk trace_out profile metrics = { trace_out; profile; metrics } in
  Term.(const mk $ trace_out_arg $ profile_arg $ metrics_arg)

(* Exit with [code] and a one-line diagnostic unless [path] (if given)
   can be created or written. Opening without truncation leaves an
   existing file as it was. *)
let require_writable ~code ~flag = function
  | None -> ()
  | Some path -> (
    let existed = Sys.file_exists path in
    match open_out_gen [ Open_wronly; Open_creat ] 0o644 path with
    | oc ->
      close_out oc;
      if not existed then Sys.remove path
    | exception Sys_error m ->
      Fmt.epr "eprec: %s: %s@." flag m;
      exit code)

(* Run [f] with the span store recording when --trace-out/--profile ask
   for it, exporting the spans when [f] finishes; otherwise spans stay
   no-ops. *)
let with_telemetry tel f =
  if tel.trace_out = None && not tel.profile then f ()
  else begin
    require_writable ~code:1 ~flag:"--trace-out" tel.trace_out;
    Epre_telemetry.Recorder.set_trace true;
    let finish () =
      let events = Epre_telemetry.Recorder.snapshot () in
      Epre_telemetry.Recorder.set_trace false;
      (match tel.trace_out with
      | Some path -> Epre_telemetry.Chrome_trace.write ~path events
      | None -> ());
      if tel.profile then Fmt.epr "%s@?" (Epre_telemetry.Profile.render events)
    in
    Fun.protect ~finally:finish f
  end

let emit_metrics tel stats =
  match tel.metrics with
  | None -> ()
  | Some `Json ->
    if stats <> [] then Fmt.epr "%s@." (Epre.Pipeline.stats_jsonl stats);
    (match Epre_telemetry.Metrics.snapshot () with
    | [] -> ()
    | entries -> Fmt.epr "%s@." (Epre_telemetry.Metrics.to_jsonl entries))

(* The value of a registry lookup, or exit 1 with its error and a pointer
   to the registry listing. *)
let registry_ok = function
  | Ok v -> v
  | Error msg ->
    Fmt.epr "%s (see `eprec passes`)@." msg;
    exit 1

(* The pass sequence the flags name: the --passes registry sequence with
   the --chaos fault spliced in, or the level with the fault to inject.
   Both flags are parsed eagerly, so a typo always errors, even when
   there is no pipeline to splice into; --chaos alone is an error. *)
let pass_sequence ~level ~passes ~chaos =
  let chaos =
    Option.map (fun spec -> registry_ok (Epre_harness.Chaos.parse_spec spec)) chaos
  in
  match (passes, level) with
  | Some spec, _ ->
    let named =
      Epre.Passes.parse_sequence spec
      |> Result.map_error (Printf.sprintf "unknown pass %S")
      |> registry_ok
      |> List.map Epre.Passes.to_named
    in
    Some (`Passes (Epre.Pipeline.inject_faults (Option.to_list chaos) named))
  | None, Some level -> Some (`Level (level, Option.to_list chaos))
  | None, None ->
    if chaos <> None then begin
      Fmt.epr "--chaos needs a pipeline to inject into (pass -O or --passes)@.";
      exit 1
    end;
    None

type supervision = {
  safe : bool;
  validate : Epre_harness.Harness.validation option;
  report : [ `Json ] option;
  chaos : string option;
  audit : bool;
}

let supervision_term =
  let mk safe validate report chaos () audit =
    { safe; validate; report; chaos; audit }
  in
  Term.(
    const mk $ safe_arg $ validate_arg $ report_arg $ chaos_arg
    $ chaos_seed_arg $ audit_arg)

let supervised sup =
  sup.safe || sup.validate <> None || sup.chaos <> None || sup.audit

let harness_config sup =
  { Epre_harness.Harness.validation =
      Option.value sup.validate ~default:Epre_harness.Harness.Ir;
    fuel = Epre_interp.Interp.default_fuel;
    keep_going = sup.safe;
    audit = sup.audit;
  }

let print_report sup ppf records =
  match sup.report with
  | Some `Json -> Fmt.pf ppf "%s@." (Epre_harness.Report.to_json records)
  | None -> ()

let print_stats stats =
  List.iter
    (fun s ->
      let named_total = function
        | None -> "-"
        | Some (pre : Epre_pre.Pre.stats) ->
          string_of_int (pre.Epre_pre.Pre.inserted + pre.Epre_pre.Pre.deleted)
      in
      Fmt.epr
        "stats %-12s renamed=%d pre(ins+del)=%s constants=%d peephole=%d \
         dce=%d coalesced=%d@."
        s.Epre.Pipeline.routine s.Epre.Pipeline.exprs_renamed
        (named_total s.Epre.Pipeline.pre) s.Epre.Pipeline.constants_folded
        s.Epre.Pipeline.peephole_rewrites s.Epre.Pipeline.dce_removed
        s.Epre.Pipeline.copies_coalesced)
    stats

(* --trace is change-aware: a stage whose output is textually identical to
   the routine's previous dump prints a one-line "unchanged" marker
   instead of the full IR, so the Figures 2-10 walkthroughs aren't buried
   in identical dumps. Seeded from the pre-pipeline program, so even a
   first pass that does nothing is marked. *)
let dump_hooks trace prog =
  if not trace then Epre.Pipeline.no_hooks
  else begin
    let last = Hashtbl.create 7 in
    let render r = Fmt.str "%a" Epre_ir.Pp.routine r in
    List.iter
      (fun (r : Epre_ir.Routine.t) ->
        Hashtbl.replace last r.Epre_ir.Routine.name (render r))
      (Epre_ir.Program.routines prog);
    { Epre.Pipeline.dump =
        (fun pass r ->
          let name = r.Epre_ir.Routine.name in
          let text = render r in
          match Hashtbl.find_opt last name with
          | Some prev when String.equal prev text ->
            Fmt.epr "=== after %s: %s unchanged ===@.@." pass name
          | _ ->
            Hashtbl.replace last name text;
            Fmt.epr "=== after %s ===@.%s@.@." pass text) }
  end

(* Optimize [prog] in place per the CLI flags; returns the pipeline stats
   (empty for custom --passes sequences). Supervised runs send their
   per-pass records to [--report] and, without --safe, abort at the first
   rollback; a bare run that raises or leaves ill-formed IR aborts too.
   Either way the diagnostic is one line and the exit code 1. *)
let optimize ~level ~passes ~trace ~sup prog =
  let hooks = dump_hooks trace prog in
  let config = harness_config sup in
  try
    match pass_sequence ~level ~passes ~chaos:sup.chaos with
    | None -> []
    | Some (`Passes named) when supervised sup ->
      print_report sup Fmt.stderr
        (Epre_harness.Harness.supervise ~dump:hooks.Epre.Pipeline.dump config
           ~passes:named prog);
      []
    | Some (`Level (level, inject)) when supervised sup ->
      let stats, records =
        Epre.Pipeline.optimize_supervised ~hooks ~inject ~config ~level prog
      in
      print_report sup Fmt.stderr records;
      stats
    | Some (`Passes named) ->
      Epre.Pipeline.run_passes ~hooks named prog;
      []
    | Some (`Level (level, _)) -> Epre.Pipeline.optimize ~hooks ~level prog
  with
  | Epre_harness.Harness.Supervision_failed record ->
    Fmt.epr "supervision failed: %s@." (Epre_harness.Report.record_to_line record);
    print_report sup Fmt.stderr [ record ];
    exit 1
  | e ->
    let reason =
      match e with
      | Epre_ir.Routine.Ill_formed m -> Epre_harness.Harness.Ir_violation m
      | e -> Epre_harness.Harness.Pass_exception (Printexc.to_string e)
    in
    Fmt.epr "eprec: optimization failed: %s@."
      (Epre_harness.Harness.reason_to_string reason);
    exit 1

let format_arg =
  Arg.(
    value
    & opt (enum [ ("pretty", `Pretty); ("text", `Text); ("dot", `Dot) ]) `Pretty
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Output syntax: $(b,pretty) (the paper-style printer), $(b,text) \
           (the round-tripping Ir_text format) or $(b,dot) (Graphviz).")

let compile_cmd =
  let doc = "compile a source file and print the resulting ILOC" in
  let run file level trace passes format sup tel stats =
    let prog = compile_source file in
    let pipeline_stats =
      with_telemetry tel (fun () -> optimize ~level ~passes ~trace ~sup prog)
    in
    if stats && tel.metrics = None then print_stats pipeline_stats;
    emit_metrics tel pipeline_stats;
    match format with
    | `Pretty -> Fmt.pr "%a@." Epre_ir.Pp.program prog
    | `Text -> print_string (Epre_ir.Ir_text.print_program prog)
    | `Dot -> print_string (Epre_ir.Cfg_dot.program prog)
  in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(
      const run $ file_arg $ level_arg $ trace_arg $ passes_arg $ format_arg
      $ supervision_term $ telemetry_term $ stats_arg)

let run_cmd =
  let doc = "compile, optimize and interpret a program (entry: main)" in
  let entry_arg =
    Arg.(value & opt string "main" & info [ "entry" ] ~docv:"NAME" ~doc:"Entry routine.")
  in
  let run file level trace passes entry sup tel stats =
    let prog = compile_source file in
    let interp () =
      Epre_telemetry.Telemetry.Span.with_ ~kind:"interp" ~name:entry (fun () ->
          Epre_interp.Interp.run prog ~entry ~args:[])
    in
    let outcome =
      with_telemetry tel (fun () ->
          let pipeline_stats = optimize ~level ~passes ~trace ~sup prog in
          if stats && tel.metrics = None then print_stats pipeline_stats;
          emit_metrics tel pipeline_stats;
          match interp () with
          | result -> Ok result
          | exception Epre_interp.Interp.Runtime_error msg ->
            Error (2, "runtime error: " ^ msg)
          | exception Epre_interp.Interp.Out_of_fuel ->
            (* Exit codes (see README): 1 compile/supervision failure,
               2 runtime error, 3 fuel exhaustion. *)
            Error
              ( 3,
                Printf.sprintf
                  "out of fuel: interpreter budget (%d operations) exhausted \
                   — the program may not terminate"
                  Epre_interp.Interp.default_fuel ))
    in
    match outcome with
    | Ok result ->
      List.iter
        (fun v -> Fmt.pr "emit %a@." Epre_ir.Value.pp v)
        result.Epre_interp.Interp.trace;
      (match result.Epre_interp.Interp.return_value with
      | Some v -> Fmt.pr "result: %a@." Epre_ir.Value.pp v
      | None -> ());
      Fmt.pr "dynamic operations: %a@." Epre_interp.Counts.pp
        result.Epre_interp.Interp.counts
    | Error (code, msg) ->
      Fmt.epr "%s@." msg;
      exit code
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ file_arg $ level_arg $ trace_arg $ passes_arg $ entry_arg
      $ supervision_term $ telemetry_term $ stats_arg)

let bisect_cmd =
  let doc =
    "find the minimal failing prefix of a pass sequence and print the IR \
     delta of the culprit pass"
  in
  let workload_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "workload" ] ~docv:"NAME"
          ~doc:"Bisect over a built-in workload instead of a source FILE.")
  in
  let bisect_file_arg =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let run file workload level passes sup =
    let _, compile =
      program_input file workload
        ~usage:"bisect needs exactly one input: FILE or --workload NAME"
    in
    let prog = compile () in
    let named =
      match
        pass_sequence
          ~level:(Some (Option.value level ~default:Epre.Pipeline.Partial))
          ~passes ~chaos:sup.chaos
      with
      | Some (`Passes named) -> named
      | Some (`Level (level, inject)) ->
        Epre.Pipeline.inject_faults inject (Epre.Pipeline.level_passes ~level)
      | None -> []
    in
    match Epre_harness.Bisect.run ~passes:named prog with
    | Some failure -> Fmt.pr "%a@." Epre_harness.Bisect.pp_failure failure
    | None -> Fmt.pr "sequence is healthy: every pass validated@."
  in
  Cmd.v (Cmd.info "bisect" ~doc)
    Term.(
      const run $ bisect_file_arg $ workload_arg $ level_arg $ passes_arg
      $ supervision_term)

let fuzz_cmd =
  let doc =
    "differentially fuzz the optimizer with seeded random programs; reduce \
     and persist failures"
  in
  let man =
    [ `S Manpage.s_description;
      `P
        "Generates seeded random programs (well-typed and trap-free by \
         construction), runs each through every optimization level — or \
         just $(b,-O), or with a $(b,--chaos) fault spliced in — and \
         compares observable behaviour against the unoptimized program. \
         Failures are classified (pass exception, IR violation, behaviour \
         mismatch, fuel divergence), greedily reduced to a minimal \
         reproducer, and saved under $(b,--corpus). The verdict summary on \
         stdout is deterministic for a given seed: no timestamps, no \
         durations.";
      `P
        "$(b,--replay) DIR re-checks saved reproducers (one entry \
         directory, or a whole corpus) against their recorded failure \
         signatures.";
      `P
        "Exit status: 0 when every program survives (or every replayed \
         entry loads), 1 when the campaign found failures or a replayed \
         entry is broken." ]
  in
  let runs_arg =
    Arg.(
      value & opt int 200
      & info [ "runs" ] ~docv:"N" ~doc:"Number of programs to generate.")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Master seed; each case's seed derives from it, so the whole \
             campaign is reproducible.")
  in
  let max_size_arg =
    Arg.(
      value & opt int 30
      & info [ "max-size" ] ~docv:"N"
          ~doc:"Statement budget for each generated program's main body.")
  in
  let reduce_arg =
    Arg.(
      value
      & vflag true
          [ ( true,
              info [ "reduce" ]
                ~doc:"Reduce each failure to a minimal reproducer (default)." );
            (false, info [ "no-reduce" ] ~doc:"Keep failures unreduced.") ])
  in
  let corpus_arg =
    Arg.(
      value
      & opt string "fuzz/corpus"
      & info [ "corpus" ] ~docv:"DIR" ~doc:"Where reproducers are persisted.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"DIR"
          ~doc:
            "Replay saved reproducers instead of fuzzing: DIR is one corpus \
             entry or a corpus root.")
  in
  let pinpoint_arg =
    Arg.(
      value & flag
      & info [ "pinpoint" ]
          ~doc:
            "Bisect each failure to its culprit pass (slower; names the \
             pass in the verdict).")
  in
  let replay_entries dir =
    if Sys.file_exists (Filename.concat dir "meta.json") then [ dir ]
    else
      Epre_fuzz.Corpus.list ~dir |> List.map (Filename.concat dir)
  in
  let run runs seed max_size reduce corpus replay level chaos () pinpoint jobs
      tel =
    match replay with
    | Some dir -> begin
      match replay_entries dir with
      | [] ->
        Fmt.epr "no corpus entries under %s@." dir;
        exit 1
      | dirs ->
        let broken = ref 0 in
        List.iter
          (fun d ->
            match Epre_fuzz.Campaign.replay d with
            | Error m ->
              incr broken;
              Fmt.pr "broken       %s: %s@." d m
            | Ok (entry, verdict) ->
              (match verdict with
              | Epre_fuzz.Campaign.Broken _ -> incr broken
              | _ -> ());
              Fmt.pr "%-12s %s@."
                (Epre_fuzz.Campaign.replay_result_to_string verdict)
                entry.Epre_fuzz.Corpus.id)
          dirs;
        if !broken > 0 then exit 1
    end
    | None ->
      (* Validate --chaos before spending any time generating. *)
      Option.iter
        (fun spec -> ignore (registry_ok (Epre_harness.Chaos.parse_spec spec)))
        chaos;
      let config =
        { Epre_fuzz.Campaign.default_config with
          runs; seed; max_size; reduce; chaos;
          levels =
            (match level with
            | Some l -> [ l ]
            | None -> Epre.Pipeline.all_levels);
          corpus_dir = Some corpus;
          pinpoint;
          jobs = effective_jobs jobs }
      in
      let summary =
        with_telemetry tel (fun () ->
            Epre_fuzz.Campaign.run ~log:(Fmt.epr "%s@.") config)
      in
      print_endline (Epre_fuzz.Campaign.summary_to_json summary);
      Fmt.epr "fuzz: %d runs, %d failing case(s), %d failure(s), %d reduced@."
        summary.Epre_fuzz.Campaign.runs summary.Epre_fuzz.Campaign.cases_failed
        (List.length summary.Epre_fuzz.Campaign.failures)
        summary.Epre_fuzz.Campaign.reduced;
      if summary.Epre_fuzz.Campaign.cases_failed > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc ~man)
    Term.(
      const run $ runs_arg $ seed_arg $ max_size_arg $ reduce_arg $ corpus_arg
      $ replay_arg $ level_arg $ chaos_arg $ chaos_seed_arg $ pinpoint_arg
      $ jobs_arg $ telemetry_term)

let table1_cmd =
  let doc = "regenerate Table 1 (dynamic counts at all optimization levels)" in
  let run () = print_string (Epre.Experiments.render_table1 (Epre.Experiments.table1 ())) in
  Cmd.v (Cmd.info "table1" ~doc) Term.(const run $ const ())

let table2_cmd =
  let doc = "regenerate Table 2 (code expansion from forward propagation)" in
  let run () = print_string (Epre.Experiments.render_table2 (Epre.Experiments.table2 ())) in
  Cmd.v (Cmd.info "table2" ~doc) Term.(const run $ const ())

let hierarchy_cmd =
  let doc = "regenerate the Section 5.3 redundancy-elimination hierarchy" in
  let run () =
    print_string (Epre.Experiments.render_hierarchy (Epre.Experiments.hierarchy ()))
  in
  Cmd.v (Cmd.info "hierarchy" ~doc) Term.(const run $ const ())

let passes_cmd =
  let doc = "list the optimizer pass registry (for --passes)" in
  let run () =
    List.iter
      (fun (p : Epre.Pipeline.entry) ->
        let post =
          match p.checks.Epre_harness.Harness.post with
          | [] -> ""
          | ids -> Printf.sprintf "  [post: %s]" (String.concat "," ids)
        in
        Printf.printf "%-20s %s%s\n" p.name p.description post)
      Epre.Passes.all;
    (* Service faults are not pipeline passes (they attack the serve
       layer, via `serve --chaos`), but they live in the same chaos
       namespace, so list them here too. *)
    List.iter
      (fun f ->
        Printf.printf "%-20s %s\n"
          (Epre_harness.Chaos.service_name f)
          (Epre_harness.Chaos.service_description f))
      Epre_harness.Chaos.all_service_faults
  in
  Cmd.v (Cmd.info "passes" ~doc) Term.(const run $ const ())

(* --- verify / lint ----------------------------------------------------- *)

let rules_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "rules" ] ~docv:"ID1,ID2,..."
        ~doc:
          "Restrict the report to these rule ids (comma-separated; see the \
           DESIGN.md rule catalog). Unknown ids are rejected.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Machine-readable report on stdout: one object per (input, \
           level) with the diagnostics and their counts.")

let all_levels_arg =
  Arg.(
    value & flag
    & info [ "all-levels" ]
        ~doc:
          "Check the unoptimized program and then every optimization \
           level; overrides $(b,-O).")

let verify_workload_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "workload" ] ~docv:"NAME"
        ~doc:"Check a built-in workload instead of a source FILE.")

let verify_workloads_arg =
  Arg.(
    value & flag
    & info [ "workloads" ] ~doc:"Check every built-in workload.")

let verify_file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE")

let level_label = function
  | None -> "unoptimized"
  | Some l -> Epre.Pipeline.level_to_string l

(* The driver shared by verify, lint and analyze: parse --rules, run
   [check ~rules ~name compile lvl] on every (input, level) pair, and
   report either one JSON array or the text diagnostics plus a totals
   line. [check] returns the diagnostics, extra JSON fields for the
   record and a text note printed after the diagnostics. Exits 1 on any
   error-severity diagnostic. *)
let run_checks ~cmd ~check file workload workloads level all_levels rules json
    tel =
  let rules =
    Option.map
      (fun spec ->
        match Epre_verify.Rules.parse_spec spec with
        | Ok ids -> ids
        | Error id ->
          Fmt.epr "unknown rule id %S (see DESIGN.md)@." id;
          exit 1)
      rules
  in
  let inputs =
    program_inputs file workload workloads
      ~usage:(cmd ^ " takes exactly one input: FILE, --workload or --workloads")
  in
  let levels =
    if all_levels then None :: List.map Option.some Epre.Pipeline.all_levels
    else [ level ]
  in
  let total_errors = ref 0 in
  let total_warnings = ref 0 in
  let reports = ref [] in
  with_telemetry tel (fun () ->
      List.iter
        (fun (name, compile) ->
          List.iter
            (fun lvl ->
              let diags, fields, note = check ~rules ~name compile lvl in
              total_errors :=
                !total_errors + List.length (Epre_verify.Verify.errors diags);
              total_warnings :=
                !total_warnings + List.length (Epre_verify.Verify.warnings diags);
              if json then
                reports :=
                  Epre_telemetry.Tjson.Obj
                    ([ ("input", Epre_telemetry.Tjson.Str name);
                       ("level", Epre_telemetry.Tjson.Str (level_label lvl)) ]
                    @ fields
                    @ [ ("report", Epre_verify.Verify.to_tjson diags) ])
                  :: !reports
              else begin
                if diags <> [] then begin
                  Fmt.pr "== %s (%s)@." name (level_label lvl);
                  Fmt.pr "%s@." (Epre_verify.Verify.render diags)
                end;
                Option.iter (Fmt.pr "%s@.") note
              end)
            levels)
        inputs);
  if json then
    print_endline
      (Epre_telemetry.Tjson.to_string
         (Epre_telemetry.Tjson.Arr (List.rev !reports)))
  else
    Fmt.pr "%s: %d error(s), %d warning(s) over %d check(s)@." cmd !total_errors
      !total_warnings
      (List.length inputs * List.length levels);
  emit_metrics tel [];
  if !total_errors > 0 then exit 1

let run_verify ~lints =
  let check ~rules ~name:_ compile lvl =
    let prog = compile () in
    Option.iter (fun level -> ignore (Epre.Pipeline.optimize ~level prog)) lvl;
    let config = { Epre_verify.Verify.rules; include_lints = lints } in
    let diags = Epre_verify.Verify.check_program ~config prog in
    Epre_verify.Verify.record_metrics diags;
    (diags, [], None)
  in
  run_checks ~cmd:(if lints then "lint" else "verify") ~check

let verify_cmd =
  let doc =
    "statically verify a program: structural (V0xx) and type (T0xx) rules"
  in
  let man =
    [ `S Manpage.s_description;
      `P
        "Compiles the input (a source FILE, $(b,--workload) NAME or every \
         built-in workload with $(b,--workloads)), optionally optimizes it \
         at $(b,-O) or at every level with $(b,--all-levels), and runs the \
         $(b,epre_verify) rule set over the result: CFG/structural \
         well-formedness, SSA checks, definite assignment and the \
         register-type rules. The rule catalog lives in DESIGN.md.";
      `P "Exit status: 1 when any error-severity diagnostic is reported." ]
  in
  Cmd.v (Cmd.info "verify" ~doc ~man)
    Term.(
      const (run_verify ~lints:false)
      $ verify_file_arg $ verify_workload_arg $ verify_workloads_arg
      $ level_arg $ all_levels_arg $ rules_arg $ json_arg $ telemetry_term)

let lint_cmd =
  let doc = "verify plus the L0xx lint rules (style-of-IR warnings)" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Everything $(b,eprec verify) checks, plus the lint rules: unsplit \
         critical edges, dead pure code, redundant or dead phis, empty \
         forwarding blocks and rank-order violations. Lints are warnings; \
         the exit status still only reflects error-severity diagnostics." ]
  in
  Cmd.v (Cmd.info "lint" ~doc ~man)
    Term.(
      const (run_verify ~lints:true)
      $ verify_file_arg $ verify_workload_arg $ verify_workloads_arg
      $ level_arg $ all_levels_arg $ rules_arg $ json_arg $ telemetry_term)

(* --- analyze ----------------------------------------------------------- *)

let run_analyze =
  let check ~rules ~name compile lvl =
    let prog, expect_pre, baseline =
      match lvl with
      | None -> (compile (), false, None)
      | Some level ->
        let reference = compile () in
        let prog = compile () in
        ignore (Epre.Pipeline.optimize ~level prog);
        (prog, Epre.Pipeline.expects_pre ~level, Some reference)
    in
    let routine_reports, diags =
      Epre_verify.Analyze.check_program ~expect_pre ?baseline prog
    in
    let diags =
      match rules with
      | None -> diags
      | Some ids ->
        List.filter
          (fun (d : Epre_verify.Diag.t) -> List.mem d.Epre_verify.Diag.rule ids)
          diags
    in
    Epre_verify.Analyze.record_metrics diags;
    let routines =
      Epre_telemetry.Tjson.Arr
        (List.map
           (fun (rn, rep) -> Epre_verify.Analyze.report_to_tjson ~routine:rn rep)
           routine_reports)
    in
    let residual =
      List.fold_left
        (fun acc (_, rep) -> acc + Epre_verify.Analyze.Audit.residual rep)
        0 routine_reports
    in
    let note =
      if residual > 0 && lvl <> None then
        Some
          (Printf.sprintf "%s (%s): %d redundant evaluation(s) left" name
             (level_label lvl) residual)
      else None
    in
    (diags, [ ("routines", routines) ], note)
  in
  run_checks ~cmd:"analyze" ~check

let analyze_cmd =
  let doc =
    "audit PRE effectiveness: residual redundancy, down-safety and \
     register pressure (A0xx rules)"
  in
  let man =
    [ `S Manpage.s_description;
      `P
        "Compiles the input (a source FILE, $(b,--workload) NAME or every \
         built-in workload with $(b,--workloads)), optimizes it at $(b,-O) \
         (or at every level with $(b,--all-levels)), and runs the \
         redundancy auditor over the result: every expression evaluation \
         site is classified as $(b,full)y redundant (available on every \
         path — rule A001), $(b,partial)ly redundant (a safe placement \
         could remove it — A002), $(b,value)-redundant (a congruent \
         register already holds the value — A007) or clean, and each site \
         gets a down-safety verdict (its result is read on every path \
         from the site).";
      `P
        "When the program was optimized, the unoptimized compile of the \
         same input serves as the baseline for the delta rules: \
         speculative evaluations introduced (A003), a path's evaluation \
         count of one expression increased (A004) and peak register \
         pressure grew (A005). Long expression lifetimes warn under A006 \
         at any level.";
      `P
        "$(b,--json) emits one object per (input, level) with the \
         per-routine site classifications, per-block pressure, deltas and \
         the residual score, plus the diagnostics in the $(b,verify) \
         report schema.";
      `S Manpage.s_exit_status;
      `P
        "0 when the audit reports no error-severity finding (A001–A003); \
         1 when any error-severity finding is reported, or on an unknown \
         workload or rule id; 124 on command-line parse errors." ]
  in
  Cmd.v (Cmd.info "analyze" ~doc ~man)
    Term.(
      const run_analyze $ verify_file_arg $ verify_workload_arg
      $ verify_workloads_arg $ level_arg $ all_levels_arg $ rules_arg
      $ json_arg $ telemetry_term)

let serve_cmd =
  let doc = "batch compile server: JSON jobs in, JSON results out" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Reads newline-delimited JSON compile jobs from stdin (or \
         $(b,--input) FILE), optimizes each program on a pool of \
         $(b,--jobs) domains through a persistent content-hash result cache, and \
         streams one JSON result line per job to stdout, in input order.";
      `P
        "A job names its program with exactly one of $(b,file) (source \
         path), $(b,workload) (built-in name), $(b,source) (inline source \
         text) or $(b,iloc) (inline ILOC), plus optional $(b,id), \
         $(b,level) (default $(b,partial)) and $(b,emit) (include the \
         optimized ILOC in the result; default true):";
      `Pre
        "  {\"id\":\"j1\",\"level\":\"partial\",\"workload\":\"saxpy\"}\n\
        \  {\"id\":\"j2\",\"file\":\"kernel.src\",\"emit\":false}";
      `P
        "Results carry per-job cache traffic, wall latency \
         ($(b,latency_ms)), the attempt count and an $(b,outcome) of \
         $(b,ok), $(b,error), $(b,timeout) or $(b,degraded) (served at a \
         lower level than requested — the result also reports \
         $(b,requested)); \
         a malformed job line yields an in-order $(b,ok:false) result with \
         its input line number instead of killing the server. The cache \
         lives in $(b,--cache-dir) (default $(b,\\$EPREC_CACHE_DIR), else \
         $(b,\\$XDG_CACHE_HOME/eprec), else $(b,~/.cache/eprec)) and \
         survives restarts: a routine whose (ILOC, pipeline fingerprint) \
         digest was optimized before — by any prior job or process — is \
         served as its stored ILOC text, byte-identical to a recompile \
         and never re-parsed. Writes take an \
         advisory file lock, so concurrent serve processes can share one \
         cache directory.";
      `P
        "Fault tolerance: the optimizer is deterministic, so a failed job \
         is never re-run at the same level. $(b,--timeout-ms) cancels a \
         job attempt at its next pass boundary; the degradation ladder \
         re-attempts a failed job at successively lower optimization \
         levels down to baseline ($(b,--no-degrade) disables), validating \
         every degraded result against the unoptimized program before \
         serving it. Per-pass circuit breakers (3 consecutive failures \
         open one; a half-open probe runs after 8 skipped executions) \
         serve later jobs at the highest level without the failing pass, \
         so one poisoned pass degrades service instead of failing every \
         job. A failed cache store or log write is counted and never \
         fails a job. $(b,--chaos) injects service faults (repeatable; \
         $(b,chaos:slow-job), $(b,chaos:cache-corrupt), \
         $(b,chaos:cache-lock-hold), $(b,chaos:kill-self), \
         $(b,chaos:pass-poison)) keyed deterministically on job ids, for \
         drills and soak tests.";
      `P
        "Crash safety: with a cache directory, every job's lifecycle is \
         journaled to $(b,<cache-dir>/journal.jsonl) — an fsync'd \
         append-only WAL. If the server is killed mid-batch, restarting \
         it with $(b,--resume) on the same input skips jobs whose result \
         lines provably reached the output (they produce no line on the \
         resumed run) and re-runs in-flight ones exactly once, so \
         concatenating the killed run's output with the resumed run's \
         yields the complete batch byte-identically. \
         Overload: input is read only between batches, so $(b,--batch) \
         bounds read-ahead and a busy server leaves the rest of its input \
         in the pipe (backpressure).";
      `P
        "Observability: every job carries its id as a correlation id \
         through the structured event log — $(b,--log-level) mirrors \
         events at that level and above to stderr, $(b,--log-out) \
         appends every event as JSONL. $(b,--stats-every) prints a \
         one-line progress summary (throughput, hit rate, p50/p99 \
         latency, pool utilization) every N jobs, and $(b,--metrics-out) \
         writes Prometheus-style counters and latency histograms \
         (atomically) on each stats tick and at exit; a failed write is \
         counted and never stops serving. None of this touches stdout: \
         results are byte-identical with every sink on or off.";
      `S "EXIT STATUS";
      `P
        "$(b,0) every job served at its requested level; $(b,1) at least \
         one job failed; $(b,2) fatal error (bad usage, unknown fault, \
         $(b,--resume) without a cache); $(b,4) all jobs completed but \
         some were degraded. Under $(b,chaos:kill-self) the \
         server kills itself with $(b,SIGKILL) (exit 137) after \
         journaling the in-flight batch." ]
  in
  let input_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "input" ] ~docv:"FILE"
          ~doc:"Read job lines from FILE instead of stdin.")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR" ~doc:"Result cache directory.")
  in
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Recompile every job; touch no cache.")
  in
  let batch_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Jobs read and dispatched to the pool per round (default \
             $(b,max 32 (4*(jobs-1)))); the bound on input read-ahead. \
             Results still stream in input order.")
  in
  let cache_max_bytes_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-max-bytes" ] ~docv:"N"
          ~doc:
            "Byte budget for the cache directory; exceeding it evicts the \
             oldest entries (default unbounded).")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Per-job attempt deadline; an overrunning job is cancelled at \
             its next pass boundary and reported as $(b,outcome:timeout).")
  in
  let serve_chaos_arg =
    Arg.(
      value & opt_all string []
      & info [ "chaos" ] ~docv:"NAME"
          ~doc:
            "Inject a service fault class (repeatable): \
             $(b,chaos:slow-job), $(b,chaos:cache-corrupt), \
             $(b,chaos:cache-lock-hold), $(b,chaos:kill-self), \
             $(b,chaos:pass-poison).")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume a killed batch: jobs the journal proves were already \
             emitted produce no line, the rest re-run. Requires a cache \
             directory (the journal lives at \
             $(b,<cache-dir>/journal.jsonl)).")
  in
  let cache_sweep_age_arg =
    Arg.(
      value & opt float 60.0
      & info [ "cache-sweep-age-s" ] ~docv:"S"
          ~doc:
            "Age in seconds before an orphaned cache temp file is swept \
             on startup; files whose writer still holds its advisory \
             lock are spared regardless.")
  in
  let no_degrade_arg =
    Arg.(
      value & flag
      & info [ "no-degrade" ]
          ~doc:
            "Disable the graceful-degradation ladder: terminal failures \
             are reported as-is instead of being re-attempted at lower \
             optimization levels.")
  in
  let log_level_arg =
    let log_level_conv =
      conv ~noun:"log level" Epre_telemetry.Log.level_of_string
        Epre_telemetry.Log.level_to_string
    in
    Arg.(
      value
      & opt (some log_level_conv) None
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Mirror structured events at LEVEL ($(b,debug), $(b,info), \
             $(b,warn), $(b,error)) and above to stderr as one-line text.")
  in
  let log_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-out" ] ~docv:"FILE"
          ~doc:"Append every structured event to FILE as JSON lines.")
  in
  let stats_every_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "stats-every" ] ~docv:"N"
          ~doc:
            "Print a one-line progress summary to stderr every N completed \
             jobs (throughput, hit rate, p50/p99 latency, pool \
             utilization), and once at the end.")
  in
  let metrics_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write Prometheus-style text exposition (counters plus latency \
             histogram quantiles) to FILE, atomically, on each stats tick \
             and at exit.")
  in
  let run input jobs cache_dir no_cache batch cache_max_bytes timeout_ms
      chaos_names () resume cache_sweep_age_s no_degrade log_level log_out
      stats_every metrics_out tel =
    (* Reject an unwritable output path before any work, not after the
       batch. *)
    List.iter
      (fun (flag, path) -> require_writable ~code:2 ~flag path)
      [ ("--log-out", log_out); ("--metrics-out", metrics_out);
        ("--trace-out", tel.trace_out) ];
    let chaos =
      List.map
        (fun n ->
          match Epre_harness.Chaos.service_fault_of_name n with
          | Some f -> f
          | None ->
            Fmt.epr "unknown service fault %S (see `eprec passes`)@." n;
            exit 2)
        chaos_names
    in
    let policy =
      { Epre_service.Service.Policy.timeout_ms; degrade = not no_degrade }
    in
    let cache =
      if no_cache then None
      else
        Some
          (Epre_service.Cache.create ?max_bytes:cache_max_bytes
             ~sweep_age_s:cache_sweep_age_s
             ~dir:
               (Option.value cache_dir
                  ~default:(Epre_service.Cache.default_dir ()))
             ())
    in
    let journal =
      match cache with
      | Some c ->
        (* A fresh serve truncates any stale journal (unless another live
           serve holds it) and stamps a new run id; --resume continues
           the previous incarnation's run id instead. *)
        let path = Filename.concat (Epre_service.Cache.dir c) "journal.jsonl" in
        (match
           Epre_service.Journal.open_
             ~mode:(if resume then `Resume else `Fresh)
             ~path ()
         with
        | j -> Some j
        | exception Sys_error m ->
          Fmt.epr "eprec: journal: %s@." m;
          exit 2)
      | None ->
        if resume then begin
          Fmt.epr "serve: --resume needs the journal, which lives in the \
                   cache directory; drop --no-cache@.";
          exit 2
        end;
        None
    in
    let breaker = Epre_service.Breaker.create () in
    let ic = match input with None -> stdin | Some f -> open_in f in
    (match log_level with
    | Some l -> Epre_telemetry.Log.set_stderr_level (Some l)
    | None -> ());
    (match log_out with
    | Some f -> Epre_telemetry.Log.open_file f
    | None -> ());
    let close () =
      if input <> None then close_in_noerr ic;
      Option.iter Epre_service.Journal.close journal;
      Option.iter Epre_service.Cache.close cache;
      Epre_telemetry.Log.close_file ()
    in
    let summary =
      match
        Fun.protect ~finally:close (fun () ->
            with_telemetry tel (fun () ->
                Epre_service.Pool.with_pool ~jobs:(effective_jobs jobs)
                  (fun pool ->
                    Epre_service.Service.serve ?cache ?batch ~policy ~chaos
                      ?stats_every ?metrics_out ?journal ~resume ~breaker
                      ~pool ~input:ic ~output:stdout ())))
      with
      | summary -> summary
      | exception Epre_service.Service.Killed ->
        (* chaos:kill-self — make the drill real: flushed output and the
           journal survive, then the process dies exactly as a crashed
           server would (exit 137). *)
        flush stdout;
        flush stderr;
        Unix.kill (Unix.getpid ()) Sys.sigkill;
        assert false
    in
    emit_metrics tel [];
    Fmt.epr
      "serve: %d job(s), %d ok (%d degraded), %d failed (%d timeout), %d \
       replayed, %d hit(s), %d miss(es), %.1f ms@."
      summary.Epre_service.Service.jobs summary.Epre_service.Service.succeeded
      summary.Epre_service.Service.degraded
      summary.Epre_service.Service.failed summary.Epre_service.Service.timeouts
      summary.Epre_service.Service.replayed
      summary.Epre_service.Service.total.Epre_service.Service.hits
      summary.Epre_service.Service.total.Epre_service.Service.misses
      summary.Epre_service.Service.wall_ms;
    if summary.Epre_service.Service.failed > 0 then exit 1
    else if summary.Epre_service.Service.degraded > 0 then exit 4
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(
      const run $ input_arg $ jobs_arg $ cache_dir_arg $ no_cache_arg
      $ batch_arg $ cache_max_bytes_arg $ timeout_arg $ serve_chaos_arg
      $ chaos_seed_arg $ resume_arg $ cache_sweep_age_arg $ no_degrade_arg $ log_level_arg $ log_out_arg $ stats_every_arg
      $ metrics_out_arg $ telemetry_term)

let workloads_cmd =
  let doc = "list the built-in workload suite, or differentially check it" in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Compile every workload, optimize at $(b,-O) (default \
             $(b,partial)), interpret, and compare the observable behaviour \
             against the unoptimized program. Honours the supervision \
             flags; exits non-zero on any mismatch.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "With $(b,--check): treat verifier warnings on the optimized \
             program as failures, not just diagnostics.")
  in
  let run check strict level jobs sup tel =
    if not check then
      List.iter
        (fun w ->
          Printf.printf "%-12s %s\n" w.Epre_workloads.Workloads.name
            w.Epre_workloads.Workloads.description)
        Epre_workloads.Workloads.all
    else begin
      let level = Option.value level ~default:Epre.Pipeline.Partial in
      (* Parse --chaos once, eagerly: a typo must error before any worker
         runs, and workers must not call exit. *)
      let inject =
        match pass_sequence ~level:(Some level) ~passes:None ~chaos:sup.chaos with
        | Some (`Level (_, inject)) -> inject
        | _ -> []
      in
      (* Each workload is an independent program, so the whole check —
         optimize (even Exec-validated), verify, interpret — fans across
         the pool. Diagnostics are collected per workload and printed in
         suite order afterwards, byte-identical to a serial run. *)
      let check_workload w =
        let logs = Buffer.create 256 in
        let failed = ref 0 in
        let name = w.Epre_workloads.Workloads.name in
        let reference = Epre_workloads.Workloads.compile w in
        let prog = Epre_workloads.Workloads.compile w in
        let stats = ref [] and records = ref [] in
        (try
           if supervised sup then begin
             let s, r =
               Epre.Pipeline.optimize_supervised ~inject
                 ~config:(harness_config sup) ~level prog
             in
             stats := s;
             records := r
           end
           else stats := Epre.Pipeline.optimize ~level prog
         with
        | Epre_harness.Harness.Supervision_failed record ->
          records := [ record ];
          incr failed;
          Printf.bprintf logs "FAIL %-12s %s\n" name
            (Epre_harness.Report.record_to_line record)
        | e ->
          incr failed;
          Printf.bprintf logs "FAIL %-12s pass raised: %s\n" name
            (Printexc.to_string e));
        (* Static verification of the optimized program (V/T rules; run
           `eprec lint` for the L rules): errors always fail the workload,
           warnings are surfaced (and fail under --strict). *)
        let diags = Epre_verify.Verify.check_program prog in
        Epre_verify.Verify.record_metrics diags;
        let verrs = Epre_verify.Verify.errors diags in
        let vwarns = Epre_verify.Verify.warnings diags in
        List.iter
          (fun d ->
            Printf.bprintf logs "     %s\n" (Epre_verify.Diag.to_string d))
          diags;
        if verrs <> [] then begin
          incr failed;
          Printf.bprintf logs "FAIL %-12s verifier: %d error(s)\n" name
            (List.length verrs)
        end
        else if strict && vwarns <> [] then begin
          incr failed;
          Printf.bprintf logs "FAIL %-12s verifier: %d warning(s) (--strict)\n"
            name (List.length vwarns)
        end;
        (* Redundancy audit of the optimized program against the
           unoptimized reference: residual-redundancy errors (A001/A002)
           fail the workload like verifier errors. The advisory A
           warnings fire on legitimate engine trade-offs (see `eprec
           analyze`), so they never gate the check, strict or not. *)
        let _, adiags =
          Epre_verify.Analyze.check_program ~expect_pre:(Epre.Pipeline.expects_pre ~level)
            ~baseline:reference prog
        in
        Epre_verify.Analyze.record_metrics adiags;
        let aerrs = Epre_verify.Verify.errors adiags in
        List.iter
          (fun d ->
            Printf.bprintf logs "     %s\n" (Epre_verify.Diag.to_string d))
          aerrs;
        if aerrs <> [] then begin
          incr failed;
          Printf.bprintf logs "FAIL %-12s auditor: %d error(s)\n" name
            (List.length aerrs)
        end;
        let fuel = Epre_interp.Interp.default_fuel in
        let before = Epre_harness.Harness.observe ~fuel reference in
        let after = Epre_harness.Harness.observe ~fuel prog in
        if Epre_harness.Harness.obs_equal before after then
          Printf.bprintf logs "ok   %-12s\n" name
        else begin
          incr failed;
          Printf.bprintf logs "FAIL %-12s behaviour diverged\n" name
        end;
        (Buffer.contents logs, !failed, !stats, !records)
      in
      let results =
        with_telemetry tel (fun () ->
            Epre_service.Pool.with_pool ~jobs:(effective_jobs jobs) (fun pool ->
                Epre_service.Pool.map_list pool check_workload
                  Epre_workloads.Workloads.all))
      in
      let failures = ref 0 in
      let all_stats = ref [] and all_records = ref [] in
      List.iter
        (fun (logs, failed, stats, records) ->
          Fmt.epr "%s@?" logs;
          failures := !failures + failed;
          all_stats := !all_stats @ stats;
          all_records := !all_records @ records)
        results;
      print_report sup Fmt.stdout !all_records;
      emit_metrics tel !all_stats;
      if !failures > 0 then begin
        Fmt.epr "%d workload(s) failed@." !failures;
        exit 1
      end
    end
  in
  Cmd.v (Cmd.info "workloads" ~doc)
    Term.(
      const run $ check_arg $ strict_arg $ level_arg $ jobs_arg
      $ supervision_term $ telemetry_term)

let main =
  let doc = "effective partial redundancy elimination (Briggs & Cooper, PLDI 1994)" in
  Cmd.group (Cmd.info "eprec" ~doc)
    [ compile_cmd; run_cmd; bisect_cmd; fuzz_cmd; table1_cmd; table2_cmd; hierarchy_cmd;
      verify_cmd; lint_cmd; analyze_cmd; passes_cmd; workloads_cmd; serve_cmd ]

let () = exit (Cmd.eval main)
