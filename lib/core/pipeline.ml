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
    it internally.

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
  reassoc : Epre_reassoc.Reassociate.stats option;
  gvn : Epre_gvn.Gvn.stats option;
  pre : Epre_pre.Pre.stats option;
  exprs_renamed : int;
  constants_folded : int;
  peephole_rewrites : int;
  dce_removed : int;
  copies_coalesced : int;
}

(* [dump] observes the routine after each named stage, for IR tracing (the
   running example of Figures 2-10 uses it). *)
type hooks = { dump : string -> Routine.t -> unit }

let no_hooks = { dump = (fun _ _ -> ()) }

let reassoc_config ~distribute =
  { Epre_reassoc.Expr_tree.default_config with Epre_reassoc.Expr_tree.distribute }

(* Mutable per-routine statistics, filled in by the pass closures as the
   sequence runs (so the same pass list works routine-major and
   supervised/pass-major). *)
type acc = {
  mutable s_reassoc : Epre_reassoc.Reassociate.stats option;
  mutable s_gvn : Epre_gvn.Gvn.stats option;
  mutable s_pre : Epre_pre.Pre.stats option;
  mutable s_renamed : int;
  mutable s_constants : int;
  mutable s_peephole : int;
  mutable s_dce : int;
  mutable s_coalesce : int;
}

let fresh_acc () =
  { s_reassoc = None; s_gvn = None; s_pre = None; s_renamed = 0; s_constants = 0;
    s_peephole = 0; s_dce = 0; s_coalesce = 0 }

let stats_of_acc ~routine a =
  { routine; reassoc = a.s_reassoc; gvn = a.s_gvn; pre = a.s_pre;
    exprs_renamed = a.s_renamed; constants_folded = a.s_constants;
    peephole_rewrites = a.s_peephole; dce_removed = a.s_dce;
    copies_coalesced = a.s_coalesce }

(* A level's sequence as named harness passes; [acc_for] locates the stats
   sink for the routine being transformed. *)
let level_passes_into ~level ~acc_for =
  let p pass_name f = { Epre_harness.Harness.pass_name; run = (fun r -> f (acc_for r) r) } in
  let front =
    match level with
    | Baseline -> []
    | Partial ->
      [ p "naming" (fun a r -> a.s_renamed <- a.s_renamed + Epre_opt.Naming.run r);
        p "pre" (fun a r -> a.s_pre <- Some (Epre_pre.Pre.run r)) ]
    | Reassociation | Distribution ->
      let distribute = level = Distribution in
      [ p "reassociation"
          (fun a r ->
            a.s_reassoc <-
              Some (Epre_reassoc.Reassociate.run ~config:(reassoc_config ~distribute) r));
        p "gvn" (fun a r -> a.s_gvn <- Some (Epre_gvn.Gvn.run r));
        p "pre" (fun a r -> a.s_pre <- Some (Epre_pre.Pre.run r)) ]
  in
  let has_pre = front <> [] in
  front
  @ [ p "constprop" (fun a r -> a.s_constants <- a.s_constants + Epre_opt.Constprop.run r);
      p "peephole"
        (fun a r ->
          a.s_peephole <-
            a.s_peephole
            + Epre_opt.Peephole.run ~config:{ Epre_opt.Peephole.mul_to_shift = true } r);
      p "dce" (fun a r -> a.s_dce <- a.s_dce + Epre_opt.Dce.run r);
      p "coalesce" (fun a r -> a.s_coalesce <- a.s_coalesce + Epre_opt.Coalesce.run r) ]
  (* Coalescing merges copy webs, which can turn distinct evaluations
     into literally identical expressions — fresh PRE opportunities the
     main round could not see. A late cleanup round collects them, so
     the PRE levels actually deliver the paper's "no removable
     redundancy survives" contract (the redundancy auditor's A002
     checks exactly this). *)
  @ (if has_pre then
       [ p "pre"
           (fun a r ->
             let s2 = Epre_pre.Pre.run r in
             a.s_pre <-
               Some
                 (match a.s_pre with
                 | None -> s2
                 | Some s1 ->
                   Epre_pre.Pre.
                     {
                       inserted = s1.inserted + s2.inserted;
                       deleted = s1.deleted + s2.deleted;
                       cse_deleted = s1.cse_deleted + s2.cse_deleted;
                       rounds = s1.rounds + s2.rounds;
                     }));
         p "dce" (fun a r -> a.s_dce <- a.s_dce + Epre_opt.Dce.run r) ]
     else [])
  @ [ p "clean" (fun _ r -> ignore (Epre_opt.Clean.run r)) ]

let level_passes ~level =
  let shared = fresh_acc () in
  level_passes_into ~level ~acc_for:(fun _ -> shared)

let level_stages ~level =
  List.map (fun p -> p.Epre_harness.Harness.pass_name) (level_passes ~level)

(* The next rung down the degradation ladder: each level is a strict
   extension of the previous, so stepping down only removes passes. *)
let lower = function
  | Distribution -> Some Reassociation
  | Reassociation -> Some Partial
  | Partial -> Some Baseline
  | Baseline -> None

(* Funnel the per-routine record into the generic counters registry, so
   the CLI's --metrics=json, CI and the bench baseline read pipeline
   results and pass-private counters through one interface. *)
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
  let stages =
    List.map (fun p -> p.Epre_harness.Harness.pass_name) (level_passes ~level)
  in
  Printf.sprintf "epre-pipeline-v1|%s|%s" (level_to_string level)
    (String.concat "," stages)

let optimize_routine ?(hooks = no_hooks) ?(poll = fun () -> ())
    ?(wrap = fun passes -> passes) ~level (r : Routine.t) =
  let acc = fresh_acc () in
  let passes = wrap (level_passes_into ~level ~acc_for:(fun _ -> acc)) in
  Epre_telemetry.Telemetry.Span.with_ ~kind:"routine" ~routine:r
    ~name:r.Routine.name (fun () ->
      List.iter
        (fun np ->
          (* Cancellation point: [poll] may raise (deadline enforcement in
             the compile service) — only between passes, never mid-pass,
             so the routine is always left in a pass boundary state. *)
          poll ();
          let pass_t0 = Epre_telemetry.Telemetry.Clock.now_ns () in
          Epre_telemetry.Telemetry.Span.with_ ~kind:"pass" ~routine:r
            ~name:np.Epre_harness.Harness.pass_name (fun () ->
              np.Epre_harness.Harness.run r);
          Epre_telemetry.Histogram.observe_since
            ~name:("pass." ^ np.Epre_harness.Harness.pass_name) pass_t0;
          hooks.dump np.Epre_harness.Harness.pass_name r)
        passes;
      Routine.validate r);
  let stats = stats_of_acc ~routine:r.Routine.name acc in
  record_metrics stats;
  stats

(** Optimize a whole program in place; returns per-routine statistics. *)
let optimize ?hooks ~level (p : Program.t) =
  Epre_telemetry.Telemetry.Span.with_ ~kind:"pipeline"
    ~name:(level_to_string level) (fun () ->
      List.map (optimize_routine ?hooks ~level) (Program.routines p))

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

(** Optimize under harness supervision: each (pass, routine) application
    checkpoints, validates at the configured tier, and rolls back on
    failure, continuing with the rest of the sequence. [inject] splices
    extra passes (chaos faults, experimental passes) into the level's
    sequence at the given positions. Statistics written by a pass that was
    subsequently rolled back do survive in [routine_stats] — the records
    are the source of truth for what is actually in effect. *)
let optimize_supervised ?(hooks = no_hooks) ?(inject = []) ~config ~level
    (p : Program.t) =
  let accs = Hashtbl.create 7 in
  let acc_for (r : Routine.t) =
    match Hashtbl.find_opt accs r.Routine.name with
    | Some a -> a
    | None ->
      let a = fresh_acc () in
      Hashtbl.add accs r.Routine.name a;
      a
  in
  let passes =
    List.fold_left
      (fun ps (at, np) -> splice ps ~at np)
      (level_passes_into ~level ~acc_for)
      inject
  in
  let records =
    (* Per-(pass, routine) spans come from the harness itself. *)
    Epre_telemetry.Telemetry.Span.with_ ~kind:"pipeline"
      ~name:(level_to_string level ^ "/supervised") (fun () ->
        Epre_harness.Harness.supervise ~dump:hooks.dump config ~passes p)
  in
  let stats =
    List.map
      (fun (r : Routine.t) -> stats_of_acc ~routine:r.Routine.name (acc_for r))
      (Program.routines p)
  in
  List.iter record_metrics stats;
  (stats, records)
