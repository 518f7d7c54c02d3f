(** The optimizer pipelines of the paper's experimental study (Section 4).

    Four optimization levels, each a strict extension of the previous:

    - [Baseline]: global constant propagation, global peephole optimization,
      global dead code elimination, coalescing, and empty-block removal;
    - [Partial]: PRE first (over the front end's naming discipline,
      re-normalized for safety), then the baseline sequence;
    - [Reassociation]: global reassociation (without distribution) and
      global value numbering before PRE and the rest;
    - [Distribution]: reassociation including distribution of
      multiplication over addition.

    Every pass consumes and produces ILOC, exactly like the Unix-filter
    passes of the paper's optimizer; passes that need SSA build and destroy
    it internally. Every pass runs from one table, [table], under its
    registry name; a level is a registry spelling ([level_spelling]), and
    the paper experiments and [--passes] run registry spellings too.

    A level's sequence can run two ways: bare ([optimize]), where a failing
    pass aborts the run exactly like one broken filter poisons the paper's
    pipeline; or supervised ([optimize_supervised]), where each pass runs
    against an [Epre_harness] checkpoint and is rolled back on failure. *)

open Epre_ir

type level = Baseline | Partial | Reassociation | Distribution

let all_levels = [ Baseline; Partial; Reassociation; Distribution ]

let level_to_string = function
  | Baseline -> "baseline"
  | Partial -> "partial"
  | Reassociation -> "reassociation"
  | Distribution -> "distribution"

let level_of_string = function
  | "baseline" -> Some Baseline
  | "partial" -> Some Partial
  | "reassociation" | "reassoc" -> Some Reassociation
  | "distribution" | "distribute" -> Some Distribution
  | _ -> None

type routine_stats = {
  routine : string;
  mutable reassoc : Epre_reassoc.Reassociate.stats option;
  mutable gvn : Epre_gvn.Gvn.stats option;
  mutable pre : Epre_pre.Pre.stats option;
  mutable exprs_renamed : int;
  mutable constants_folded : int;
  mutable peephole_rewrites : int;
  mutable dce_removed : int;
  mutable copies_coalesced : int;
}

let fresh_stats routine =
  { routine; reassoc = None; gvn = None; pre = None; exprs_renamed = 0;
    constants_folded = 0; peephole_rewrites = 0; dce_removed = 0; copies_coalesced = 0 }

(* [dump] observes the routine after each named stage, for IR tracing (the
   running example of Figures 2-10 uses it). *)
type hooks = { dump : string -> Routine.t -> unit }

let no_hooks = { dump = (fun _ _ -> ()) }

let reassoc_config ~distribute =
  { Epre_reassoc.Expr_tree.default_config with Epre_reassoc.Expr_tree.distribute }

type entry = {
  name : string;
  description : string;
  step : routine_stats -> Routine.t -> unit;
  checks : Epre_harness.Harness.checks;
}

(* A second PRE run (the levels' late cleanup round) adds to the first. *)
let add_pre (s : routine_stats) (p : Epre_pre.Pre.stats) =
  s.pre <-
    Some
      (match s.pre with
      | None -> p
      | Some q ->
        Epre_pre.Pre.
          {
            inserted = q.inserted + p.inserted;
            deleted = q.deleted + p.deleted;
            cse_deleted = q.cse_deleted + p.cse_deleted;
            rounds = q.rounds + p.rounds;
          })

(* The one place a pass runs to build a sequence: each step runs its pass
   and adds the pass's statistic to the routine's [routine_stats], so the
   same step serves the levels, [--passes] sequences (statistics
   discarded), routine-major and supervised pass-major runs alike. Each
   row also declares the harness's checks after the pass. *)
let table =
  let module C = Epre_verify.Certify in
  let e ?(post = []) ?audit ?certify name description step =
    { name; description; step; checks = { Epre_harness.Harness.post; audit; certify } }
  in
  let ignored run _ r = ignore (run r) in
  let reassociate distribute s r =
    s.reassoc <- Some (Epre_reassoc.Reassociate.run ~config:(reassoc_config ~distribute) r)
  in
  let peephole mul_to_shift s r =
    s.peephole_rewrites <-
      s.peephole_rewrites + Epre_opt.Peephole.run ~config:{ Epre_opt.Peephole.mul_to_shift } r
  in
  let dce run s r = s.dce_removed <- s.dce_removed + run r in
  [
    e "naming" "re-establish the Section 2.2 expression-naming discipline"
      (fun s r -> s.exprs_renamed <- s.exprs_renamed + Epre_opt.Naming.run r);
    e "pre" "partial redundancy elimination (edge placement)"
      ~post:[ "L001" ] ~audit:true ~certify:C.motion
      (fun s r -> add_pre s (Epre_pre.Pre.run r));
    e "pre-classic" "Morel-Renvoise PRE (block-end placement; ablation)"
      ~post:[ "L001" ] ~audit:true ~certify:C.motion
      (fun s r -> add_pre s (Epre_pre.Pre.run_classic r));
    e "reassociate"
      "global reassociation, no distribution (Section 3.1); -O reassociation's \
       reassociation stage"
      ~post:[ "L007" ] ~audit:false (reassociate false);
    e "distribute"
      "global reassociation with distribution of * over +; -O distribution's \
       reassociation stage"
      ~post:[ "L007" ] ~audit:false (reassociate true);
    e "gvn" "partition-based global value numbering (Section 3.2)" ~audit:false
      ~certify:C.values (fun s r -> s.gvn <- Some (Epre_gvn.Gvn.run r));
    e "constprop" "sparse conditional constant propagation" ~certify:C.values
      (fun s r -> s.constants_folded <- s.constants_folded + Epre_opt.Constprop.run r);
    e "peephole" "global peephole optimization" ~certify:C.values (peephole false);
    e "peephole-shift"
      "peephole including mul-to-shift rewriting (Section 5.2); the levels' \
       peephole stage"
      ~certify:C.values (peephole true);
    e "dce" "dead code elimination" ~post:[ "L002" ] ~certify:C.motion (dce Epre_opt.Dce.run);
    e "adce" "aggressive DCE via control dependence (Cytron 7.1; extension)"
      ~post:[ "L002" ] (dce Epre_opt.Adce.run);
    e "coalesce" "Chaitin-style copy coalescing" ~post:[ "L003" ] ~certify:C.values
      (fun s r -> s.copies_coalesced <- s.copies_coalesced + Epre_opt.Coalesce.run r);
    e "clean" "CFG cleanup (empty-block removal)" ~post:[ "L004" ] ~certify:C.jump_chains
      (ignored Epre_opt.Clean.run);
    e "cse-dom" "dominator-based CSE (Section 5.3 method 1)" ~audit:false
      (ignored Epre_opt.Cse_dom.run);
    e "cse-avail" "available-expression CSE (Section 5.3 method 2)" ~audit:false
      (ignored Epre_opt.Cse_avail.run);
    e "dvnt" "dominator-tree hash value numbering (extension)" ~post:[ "L005" ]
      ~audit:false (ignored Epre_opt.Dvnt.run);
    e "strength" "operator strength reduction (extension)" (ignored Epre_opt.Strength.run);
    e "ssa-roundtrip" "build and destroy pruned SSA (diagnostic)"
      (fun _ r -> ignore (Epre_ssa.Ssa.build r); ignore (Epre_ssa.Ssa.destroy r));
  ]

let level_spelling ~level =
  let front =
    match level with
    | Baseline -> []
    | Partial -> [ "naming"; "pre" ]
    | Reassociation -> [ "reassociate"; "gvn"; "pre" ]
    | Distribution -> [ "distribute"; "gvn"; "pre" ]
  in
  front
  @ [ "constprop"; "peephole-shift"; "dce"; "coalesce" ]
  (* Coalescing merges copy webs, which can turn distinct evaluations
     into literally identical expressions — fresh PRE opportunities the
     main round could not see. A late cleanup round collects them, so
     the PRE levels actually deliver the paper's "no removable
     redundancy survives" contract (the redundancy auditor's A002
     checks exactly this). *)
  @ (if front <> [] then [ "pre"; "dce" ] else [])
  @ [ "clean" ]

(* A level stage's label: its registry name, except for the two stages
   whose label names the level's role rather than the pass variant. *)
let stage_label = function
  | "reassociate" | "distribute" -> "reassociation"
  | "peephole-shift" -> "peephole"
  | name -> name

(* Each level's (label, registry row) sequence, resolved once. *)
let level_steps =
  let resolve level =
    List.map
      (fun name -> (stage_label name, List.find (fun e -> e.name = name) table))
      (level_spelling ~level)
  in
  let resolved = List.map (fun level -> (level, resolve level)) all_levels in
  fun level -> List.assoc level resolved

(* A level's sequence as named harness passes; [stats_for] locates the
   statistics of the routine being transformed. A stage carries its
   registry row's checks under its own label. *)
let level_passes_into ~level ~stats_for =
  List.map
    (fun (pass_name, e) ->
      { Epre_harness.Harness.pass_name; run = (fun r -> e.step (stats_for r) r);
        checks = e.checks })
    (level_steps level)

let level_passes ~level =
  let shared = fresh_stats "" in
  level_passes_into ~level ~stats_for:(fun _ -> shared)

let expects_pre ~level =
  List.exists (fun (_, e) -> e.checks.Epre_harness.Harness.audit = Some true) (level_steps level)

let level_stages ~level = List.map stage_label (level_spelling ~level)

(* The next rung down the degradation ladder: each level is a strict
   extension of the previous, so stepping down only removes passes. *)
let lower = function
  | Distribution -> Some Reassociation
  | Reassociation -> Some Partial
  | Partial -> Some Baseline
  | Baseline -> None

(* Funnel the per-routine record into the generic counters registry, so
   the CLI's --metrics=json and CI read pipeline results and
   pass-private counters through one interface. *)
let record_metrics (s : routine_stats) =
  let add name v = Epre_telemetry.Metrics.add ~routine:s.routine ~name v in
  add "naming.exprs_renamed" s.exprs_renamed;
  add "constprop.constants_folded" s.constants_folded;
  add "peephole.rewrites" s.peephole_rewrites;
  add "dce.removed" s.dce_removed;
  add "coalesce.copies" s.copies_coalesced;
  (match s.pre with
  | Some p ->
    add "pre.inserted" p.Epre_pre.Pre.inserted;
    add "pre.deleted" p.Epre_pre.Pre.deleted;
    add "pre.cse_deleted" p.Epre_pre.Pre.cse_deleted;
    add "pre.rounds" p.Epre_pre.Pre.rounds
  | None -> ());
  (match s.gvn with
  | Some g ->
    add "gvn.classes_merged" g.Epre_gvn.Gvn.classes_merged;
    add "gvn.renamed" g.Epre_gvn.Gvn.renamed
  | None -> ());
  match s.reassoc with
  | Some re ->
    add "reassoc.before_ops" re.Epre_reassoc.Reassociate.before_ops;
    add "reassoc.after_ops" re.Epre_reassoc.Reassociate.after_ops
  | None -> ()

let stats_to_json (s : routine_stats) =
  let module J = Epre_telemetry.Tjson in
  let opt f = function Some x -> f x | None -> J.Null in
  J.Obj
    [
      ("type", J.Str "routine_stats");
      ("routine", J.Str s.routine);
      ("exprs_renamed", J.Int s.exprs_renamed);
      ("constants_folded", J.Int s.constants_folded);
      ("peephole_rewrites", J.Int s.peephole_rewrites);
      ("dce_removed", J.Int s.dce_removed);
      ("copies_coalesced", J.Int s.copies_coalesced);
      ( "pre",
        opt
          (fun (p : Epre_pre.Pre.stats) ->
            J.Obj
              [
                ("inserted", J.Int p.Epre_pre.Pre.inserted);
                ("deleted", J.Int p.Epre_pre.Pre.deleted);
                ("cse_deleted", J.Int p.Epre_pre.Pre.cse_deleted);
                ("rounds", J.Int p.Epre_pre.Pre.rounds);
              ])
          s.pre );
      ( "gvn",
        opt
          (fun (g : Epre_gvn.Gvn.stats) ->
            J.Obj
              [
                ("classes_merged", J.Int g.Epre_gvn.Gvn.classes_merged);
                ("renamed", J.Int g.Epre_gvn.Gvn.renamed);
              ])
          s.gvn );
      ( "reassoc",
        opt
          (fun (re : Epre_reassoc.Reassociate.stats) ->
            J.Obj
              [
                ("before_ops", J.Int re.Epre_reassoc.Reassociate.before_ops);
                ("after_ops", J.Int re.Epre_reassoc.Reassociate.after_ops);
              ])
          s.reassoc );
    ]

let stats_jsonl stats =
  String.concat "\n"
    (List.map (fun s -> Epre_telemetry.Tjson.to_string (stats_to_json s)) stats)

(* Inverse of [stats_to_json], for the compile-service result cache: a
   cached routine replays its recorded statistics instead of re-running
   the pipeline. Strict on shape — any missing or mistyped field is
   [None], and the cache treats the entry as poisoned. *)
let stats_of_json (j : Epre_telemetry.Tjson.t) =
  let module J = Epre_telemetry.Tjson in
  let int k o = match J.member k o with Some (J.Int n) -> Some n | _ -> None in
  let str k o = match J.member k o with Some (J.Str s) -> Some s | _ -> None in
  (* A sub-record that is JSON [null] decodes to [Some None]; a present
     object decodes through [f]; anything else poisons the entry. *)
  let opt_sub k f o =
    match J.member k o with
    | Some J.Null -> Some None
    | Some (J.Obj _ as sub) -> Option.map Option.some (f sub)
    | _ -> None
  in
  let ( let* ) = Option.bind in
  match j with
  | J.Obj _ when str "type" j = Some "routine_stats" ->
    let* routine = str "routine" j in
    let* exprs_renamed = int "exprs_renamed" j in
    let* constants_folded = int "constants_folded" j in
    let* peephole_rewrites = int "peephole_rewrites" j in
    let* dce_removed = int "dce_removed" j in
    let* copies_coalesced = int "copies_coalesced" j in
    let* pre =
      opt_sub "pre"
        (fun o ->
          let* inserted = int "inserted" o in
          let* deleted = int "deleted" o in
          let* cse_deleted = int "cse_deleted" o in
          let* rounds = int "rounds" o in
          Some { Epre_pre.Pre.inserted; deleted; cse_deleted; rounds })
        j
    in
    let* gvn =
      opt_sub "gvn"
        (fun o ->
          let* classes_merged = int "classes_merged" o in
          let* renamed = int "renamed" o in
          Some { Epre_gvn.Gvn.classes_merged; renamed })
        j
    in
    let* reassoc =
      opt_sub "reassoc"
        (fun o ->
          let* before_ops = int "before_ops" o in
          let* after_ops = int "after_ops" o in
          Some { Epre_reassoc.Reassociate.before_ops; after_ops })
        j
    in
    Some
      { routine; reassoc; gvn; pre; exprs_renamed; constants_folded;
        peephole_rewrites; dce_removed; copies_coalesced }
  | _ -> None

(* The cache-key half that names the transformation: the level and its
   exact stage sequence. A PR that adds, removes or reorders a stage
   changes the fingerprint, so stale cached results can never be replayed
   against a different pipeline. *)
let fingerprint ~level =
  Printf.sprintf "epre-pipeline-v1|%s|%s" (level_to_string level)
    (String.concat "," (level_stages ~level))

(* The routine-major runner: the one loop that applies a pass sequence
   bare, for the levels and for registry sequences alike. Each pass gets
   a span (and its [pass.<name>] histogram) and a dump; the routine is
   validated once, after the last pass. *)
let run_routine ~hooks ~poll passes (r : Routine.t) =
  Epre_telemetry.Telemetry.Span.with_ ~kind:"routine" ~routine:r
    ~name:r.Routine.name (fun () ->
      List.iter
        (fun np ->
          (* Cancellation point: [poll] may raise (deadline enforcement in
             the compile service) — only between passes, never mid-pass,
             so the routine is always left in a pass boundary state. *)
          poll ();
          Epre_telemetry.Telemetry.Span.with_ ~kind:"pass" ~routine:r
            ~hist:("pass." ^ np.Epre_harness.Harness.pass_name)
            ~name:np.Epre_harness.Harness.pass_name (fun () ->
              np.Epre_harness.Harness.run r);
          hooks.dump np.Epre_harness.Harness.pass_name r)
        passes;
      Routine.validate r)

let optimize_routine ?(hooks = no_hooks) ?(poll = fun () -> ())
    ?(wrap = fun passes -> passes) ~level (r : Routine.t) =
  let stats = fresh_stats r.Routine.name in
  run_routine ~hooks ~poll (wrap (level_passes_into ~level ~stats_for:(fun _ -> stats))) r;
  record_metrics stats;
  stats

(** Optimize a whole program in place; returns per-routine statistics. *)
let optimize ?hooks ~level (p : Program.t) =
  Epre_telemetry.Telemetry.Span.with_ ~kind:"pipeline"
    ~name:(level_to_string level) (fun () ->
      List.map (optimize_routine ?hooks ~level) (Program.routines p))

let run_passes ~hooks passes (p : Program.t) =
  Epre_telemetry.Telemetry.Span.with_ ~kind:"pipeline" ~name:"passes" (fun () ->
      List.iter (run_routine ~hooks ~poll:ignore passes) (Program.routines p))

(** Convenience: copy, optimize the copy, return it with the stats. *)
let optimized_copy ?hooks ~level (p : Program.t) =
  let p' = Program.copy p in
  let stats = optimize ?hooks ~level p' in
  (p', stats)

(* Splice [np] into [passes] at [at] (clamped to the sequence bounds). *)
let splice passes ~at np =
  let n = List.length passes in
  let at = max 0 (min at n) in
  let rec go i = function
    | rest when i = at -> np :: rest
    | [] -> [ np ]
    | x :: rest -> x :: go (i + 1) rest
  in
  go 0 passes

let inject_faults faults passes =
  List.fold_left (fun ps (at, np) -> splice ps ~at np) passes faults

(** Optimize under harness supervision: each (pass, routine) application
    checkpoints, validates at the configured tier, and rolls back on
    failure, continuing with the rest of the sequence. [inject] splices
    extra passes (chaos faults, experimental passes) into the level's
    sequence at the given positions. Statistics written by a pass that was
    subsequently rolled back do survive in [routine_stats] — the records
    are the source of truth for what is actually in effect. *)
let optimize_supervised ?(hooks = no_hooks) ?(inject = []) ~config ~level
    (p : Program.t) =
  let stats = Hashtbl.create 7 in
  let stats_for (r : Routine.t) =
    match Hashtbl.find_opt stats r.Routine.name with
    | Some s -> s
    | None ->
      let s = fresh_stats r.Routine.name in
      Hashtbl.add stats r.Routine.name s;
      s
  in
  let passes = inject_faults inject (level_passes_into ~level ~stats_for) in
  let records =
    (* Per-(pass, routine) spans come from the harness itself. *)
    Epre_telemetry.Telemetry.Span.with_ ~kind:"pipeline"
      ~name:(level_to_string level ^ "/supervised") (fun () ->
        Epre_harness.Harness.supervise ~dump:hooks.dump config ~passes p)
  in
  let stats = List.map stats_for (Program.routines p) in
  List.iter record_metrics stats;
  (stats, records)
