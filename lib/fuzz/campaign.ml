(** Campaign driver. See the interface for the determinism contract. *)

module Frontend = Epre_frontend.Frontend
module Ir_text = Epre_ir.Ir_text
module Harness = Epre_harness.Harness
module Chaos = Epre_harness.Chaos
module Report = Epre_harness.Report
module Pipeline = Epre.Pipeline
module Span = Epre_telemetry.Telemetry.Span
module Tjson = Epre_telemetry.Tjson

type config = {
  runs : int;
  seed : int;
  max_size : int;
  levels : Pipeline.level list;
  chaos : string option;
  reduce : bool;
  corpus_dir : string option;
  fuel : int;
  pinpoint : bool;
  jobs : int;
}

let default_config =
  { runs = 200; seed = 0; max_size = 30; levels = Pipeline.all_levels;
    chaos = None; reduce = true; corpus_dir = None; fuel = 1_000_000;
    pinpoint = false; jobs = 1 }

let still_fails ocfg ~level ~cls prog =
  let ocfg = { ocfg with Oracle.levels = [ level ]; pinpoint = false } in
  List.exists (fun (f : Oracle.failure) -> f.cls = cls) (Oracle.check ocfg prog)
  (* A chaos finding must stay the chaos pass's: a candidate the level
     miscompiles without it (say, a zeroed address into an alloca DCE
     deletes) has slipped to a different fault. *)
  && (ocfg.chaos = None
     || Oracle.check { ocfg with chaos = None; chaos_name = None } prog = [])

type summary = {
  runs : int;
  seed : int;
  chaos : string option;
  cases_failed : int;
  failures : Harness.record list;
  reduced : int;
  saved : string list;
}

(* One oracle failure -> (record, corpus entry if a dir is configured). *)
let handle_failure (config : config) ocfg ~case_seed ~prog ~source (f : Oracle.failure) =
  let reduction, repro =
    if config.reduce then begin
      let still = still_fails ocfg ~level:f.level ~cls:f.cls in
      let reduced, stats = Reduce.run ~still_fails:still prog in
      (Some stats, reduced)
    end
    else (None, prog)
  in
  (* Tag the entry with the first redundancy-audit rule the repro trips
     after a clean (chaos-free) optimization at the failing level —
     "clean" when the auditor finds nothing — so corpus triage can group
     entries by what the auditor thinks was left behind. The repro is a
     failure by construction, so every step is allowed to blow up; an
     unanalyzable repro simply carries no tag. *)
  let analyze_rule =
    try
      let optimized, _stats = Pipeline.optimized_copy ~level:f.level repro in
      let _, diags =
        Epre_verify.Analyze.check_program ~expect_pre:(Pipeline.expects_pre ~level:f.level)
          ~baseline:repro optimized
      in
      match diags with
      | [] -> Some "clean"
      | d :: _ -> Some d.Epre_verify.Diag.rule
    with _ -> None
  in
  let id = Corpus.entry_id ~seed:case_seed ~level:f.level ~cls:f.cls in
  let repro_path =
    Option.map
      (fun dir -> Filename.concat (Filename.concat dir id) "repro.iloc")
      config.corpus_dir
  in
  let record =
    Oracle.failure_record ~seed:case_seed ?chaos:config.chaos ?repro:repro_path f
  in
  let meta =
    (match reduction with
    | None -> []
    | Some (st : Reduce.stats) ->
      [ ("fuzz_original_instrs", Tjson.Int st.original_instrs);
        ("fuzz_reduced_instrs", Tjson.Int st.reduced_instrs) ])
    @ match analyze_rule with None -> [] | Some rule -> [ ("analyze_rule", Tjson.Str rule) ]
  in
  let record = { record with Harness.meta = record.Harness.meta @ meta } in
  let saved =
    match config.corpus_dir with
    | None -> None
    | Some dir ->
      let entry =
        { Corpus.id; seed = case_seed; level = f.level; cls = f.cls;
          chaos = config.chaos; reduction; record;
          repro_source = Ir_text.print_program repro }
      in
      Some (Corpus.save ~dir ~original:source entry)
  in
  (record, reduction <> None, saved)

let run ?(log = ignore) (config : config) =
  let chaos =
    match config.chaos with
    | None -> None
    | Some spec -> (
      match Chaos.parse_spec spec with
      | Ok c -> Some c
      | Error m -> invalid_arg ("Campaign.run: " ^ m))
  in
  let ocfg =
    { Oracle.levels = config.levels; chaos; chaos_name = config.chaos;
      fuel = config.fuel; pinpoint = config.pinpoint }
  in
  let gen_config = { Gen.default_config with max_stmts = config.max_size } in
  let master = Rng.create config.seed in
  Span.with_ ~kind:"fuzz" ~name:"campaign" @@ fun () ->
  let cases_failed = ref 0 in
  let failures = ref [] in
  let reduced = ref 0 in
  let saved = ref [] in
  (* Case seeds are derived from the master RNG up front, so the set of
     cases is identical however the checking is scheduled. *)
  let seeds = List.init config.runs (fun _ -> Rng.int master 1_000_000_000) in
  (* Generate + compile + oracle-check one case. Oracle checking is the
     campaign's hot path and touches no shared mutable state (the chaos
     RNG is derived per (seed, routine)), so it can run on a pool. *)
  let eval_case case_seed =
    Span.with_ ~kind:"fuzz-case" ~name:(Printf.sprintf "seed%d" case_seed)
    @@ fun () ->
    let source = Gen.source ~config:gen_config case_seed in
    match Frontend.compile_string source with
    | exception Frontend.Error { line; message } ->
      `No_compile (Printf.sprintf "line %d: %s" line message)
    | prog -> (
      match Oracle.check ocfg prog with
      | [] -> `Clean
      | fs -> `Failing (fs, prog, source))
  in
  let results =
    if config.jobs >= 2 then
      Epre_service.Pool.with_pool ~jobs:config.jobs (fun pool ->
          Epre_service.Pool.map_list pool (fun s -> (s, eval_case s)) seeds)
    else List.map (fun s -> (s, eval_case s)) seeds
  in
  (* Failure handling (logging, reduction, corpus writes) stays serial and
     in case order, so log lines, entry directories and the summary are
     byte-identical at any job count. *)
  List.iter
    (fun (case_seed, result) ->
      match result with
      | `Clean -> ()
      | `No_compile detail ->
        (* The generator promises well-typed programs; a compile failure
           is itself a finding (frontend or generator bug). *)
        incr cases_failed;
        log
          (Printf.sprintf "case seed %d: does not compile (%s)" case_seed
             detail);
        let record =
          { Harness.pass = "<frontend>"; routine = "<program>";
            outcome = Harness.Rolled_back (Harness.Pass_exception detail);
            duration_ms = 0.;
            meta = [ ("fuzz_seed", Tjson.Int case_seed) ] }
        in
        failures := record :: !failures
      | `Failing (fs, prog, source) ->
        incr cases_failed;
        List.iter
          (fun (f : Oracle.failure) ->
            log
              (Printf.sprintf "case seed %d: %s at %s (%s)" case_seed
                 (Oracle.class_to_string f.cls)
                 (Pipeline.level_to_string f.level)
                 f.pass);
            let record, was_reduced, entry_dir =
              handle_failure config ocfg ~case_seed ~prog ~source f
            in
            failures := record :: !failures;
            if was_reduced then incr reduced;
            match entry_dir with
            | Some d -> saved := d :: !saved
            | None -> ())
          fs)
    results;
  { runs = config.runs; seed = config.seed; chaos = config.chaos;
    cases_failed = !cases_failed; failures = List.rev !failures;
    reduced = !reduced; saved = List.rev !saved }

let summary_to_json s =
  let classes =
    List.fold_left
      (fun acc (r : Harness.record) ->
        let cls =
          match List.assoc_opt "fuzz_class" r.meta with
          | Some (Tjson.Str c) -> c
          | _ -> "compile-error"
        in
        let n = match List.assoc_opt cls acc with Some n -> n | None -> 0 in
        (cls, n + 1) :: List.remove_assoc cls acc)
      [] s.failures
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Tjson.to_string
    (Tjson.Obj
       [ ("runs", Tjson.Int s.runs);
         ("seed", Tjson.Int s.seed);
         ( "chaos",
           match s.chaos with None -> Tjson.Null | Some c -> Tjson.Str c );
         ("cases_failed", Tjson.Int s.cases_failed);
         ("failures_found", Tjson.Int (List.length s.failures));
         ("reduced", Tjson.Int s.reduced);
         ("classes", Tjson.Obj (List.map (fun (c, n) -> (c, Tjson.Int n)) classes));
         ("failures", Tjson.Arr (List.map Report.record_to_tjson s.failures)) ])

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

type replay_result =
  | Still_fails of Oracle.failure_class
  | Class_changed of {
      expected : Oracle.failure_class;
      got : Oracle.failure_class;
    }
  | Fixed
  | Broken of string

let replay_result_to_string = function
  | Still_fails c -> "still-fails (" ^ Oracle.class_to_string c ^ ")"
  | Class_changed { expected; got } ->
    Printf.sprintf "class-changed (%s -> %s)"
      (Oracle.class_to_string expected)
      (Oracle.class_to_string got)
  | Fixed -> "fixed"
  | Broken m -> "broken: " ^ m

let replay ?(fuel = default_config.fuel) dir =
  match Corpus.load dir with
  | Error _ as e -> e
  | Ok entry -> (
    let verdict =
      match Ir_text.parse_program entry.Corpus.repro_source with
      | exception Ir_text.Parse_error { line; message } ->
        Broken (Printf.sprintf "line %d: %s" line message)
      | exception Epre_ir.Routine.Ill_formed m -> Broken m
      | prog -> (
        let chaos =
          match entry.Corpus.chaos with
          | None -> Ok None
          | Some spec -> Result.map Option.some (Chaos.parse_spec spec)
        in
        match chaos with
        | Error m -> Broken m
        | Ok chaos -> (
          let ocfg =
            { Oracle.levels = [ entry.Corpus.level ]; chaos;
              chaos_name = entry.Corpus.chaos; fuel; pinpoint = false }
          in
          match Oracle.check ocfg prog with
          | [] -> Fixed
          | fs ->
            if
              List.exists
                (fun (f : Oracle.failure) -> f.cls = entry.Corpus.cls)
                fs
            then Still_fails entry.Corpus.cls
            else
              Class_changed
                { expected = entry.Corpus.cls; got = (List.hd fs).cls }))
    in
    Ok (entry, verdict))
