(** The optimizer pipelines of the paper's experimental study (Section 4):
    the four levels, the pass registry and the statistics table. See the
    interface. *)

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

(* One statistic of [routine_stats]: its JSON key; per int it holds, the
   int's JSON key, [Metrics] counter name and projection; how to rebuild
   it from those ints; and its record field. A counter is one int field
   of the record (always present); a group is a pass's typed stats,
   absent ([None], JSON [null], no counters) until the pass first runs. *)
type 'a stat = {
  key : string;
  fields : (string * string * ('a -> int)) list;
  make : int list -> 'a;
  get : routine_stats -> 'a option;
  set : routine_stats -> 'a -> unit;
}

type stat_row = Counter of int stat | Group : 'a stat -> stat_row

let counter key metric get set =
  let get s = Some (get s) in
  { key; fields = [ (key, metric, Fun.id) ]; make = List.hd; get; set }

let group key fields make get set =
  { key; fields = List.map (fun (k, f) -> (k, key ^ "." ^ k, f)) fields; make; get; set }

let renamed = counter "exprs_renamed" "naming.exprs_renamed"
    (fun s -> s.exprs_renamed) (fun s n -> s.exprs_renamed <- n)
let folded = counter "constants_folded" "constprop.constants_folded"
    (fun s -> s.constants_folded) (fun s n -> s.constants_folded <- n)
let rewrites = counter "peephole_rewrites" "peephole.rewrites"
    (fun s -> s.peephole_rewrites) (fun s n -> s.peephole_rewrites <- n)
let removed = counter "dce_removed" "dce.removed"
    (fun s -> s.dce_removed) (fun s n -> s.dce_removed <- n)
let coalesced = counter "copies_coalesced" "coalesce.copies"
    (fun s -> s.copies_coalesced) (fun s n -> s.copies_coalesced <- n)

let pre =
  group "pre"
    Epre_pre.Pre.
      [ ("inserted", fun p -> p.inserted); ("deleted", fun p -> p.deleted);
        ("cse_deleted", fun p -> p.cse_deleted); ("rounds", fun p -> p.rounds) ]
    (function
      | [ inserted; deleted; cse_deleted; rounds ] ->
        { Epre_pre.Pre.inserted; deleted; cse_deleted; rounds }
      | _ -> invalid_arg "pre")
    (fun s -> s.pre) (fun s p -> s.pre <- Some p)

let gvn =
  group "gvn"
    Epre_gvn.Gvn.
      [ ("classes_merged", fun g -> g.classes_merged); ("renamed", fun g -> g.renamed) ]
    (function
      | [ classes_merged; renamed ] -> { Epre_gvn.Gvn.classes_merged; renamed }
      | _ -> invalid_arg "gvn")
    (fun s -> s.gvn) (fun s g -> s.gvn <- Some g)

let reassoc =
  group "reassoc"
    Epre_reassoc.Reassociate.
      [ ("before_ops", fun r -> r.before_ops); ("after_ops", fun r -> r.after_ops) ]
    (function
      | [ before_ops; after_ops ] -> { Epre_reassoc.Reassociate.before_ops; after_ops }
      | _ -> invalid_arg "reassoc")
    (fun s -> s.reassoc) (fun s r -> s.reassoc <- Some r)

(* The one table of statistics, in JSON and [--stats] order. *)
let stat_rows =
  [ Counter renamed; Counter folded; Counter rewrites; Counter removed; Counter coalesced;
    Group pre; Group gvn; Group reassoc ]

(* Add a run's value to its statistic, int by int; an absent group takes
   the value (the levels' second PRE run adds to the first). *)
let add st s x =
  st.set s
    (match st.get s with
    | None -> x
    | Some y -> st.make (List.map (fun (_, _, f) -> f y + f x) st.fields))

let adds st run s r = add st s (run r)

let counters s =
  let of_stat st =
    match st.get s with
    | None -> []
    | Some x -> List.map (fun (_, name, f) -> (name, f x)) st.fields
  in
  List.concat_map (function Counter c -> of_stat c | Group g -> of_stat g) stat_rows

(* Funnel the per-routine record into the generic counters registry, so
   the CLI's --metrics=json and CI read pipeline results and
   pass-private counters through one interface. *)
let record_metrics (s : routine_stats) =
  List.iter
    (fun (name, v) -> Epre_telemetry.Metrics.add ~routine:s.routine ~name v)
    (counters s)

module J = Epre_telemetry.Tjson

let stats_to_json (s : routine_stats) =
  let obj st x = List.map (fun (k, _, f) -> (k, J.Int (f x))) st.fields in
  let row = function
    | Counter c -> obj c (Option.get (c.get s))
    | Group g ->
      [ (g.key, Option.fold ~none:J.Null ~some:(fun x -> J.Obj (obj g x)) (g.get s)) ]
  in
  J.Obj
    (("type", J.Str "routine_stats") :: ("routine", J.Str s.routine)
    :: List.concat_map row stat_rows)

let stats_jsonl stats =
  String.concat "\n" (List.map (fun s -> J.to_string (stats_to_json s)) stats)

(* Inverse of [stats_to_json], for the compile-service result cache: a
   cached routine replays its recorded statistics instead of re-running
   the pipeline. Strict on shape — any missing or mistyped field is
   [None], and the cache treats the entry as poisoned. *)
let stats_of_json (j : J.t) =
  let int o (k, _, _) = match J.member k o with Some (J.Int n) -> n | _ -> raise Exit in
  let decode s st o = st.set s (st.make (List.map (int o) st.fields)) in
  let row s = function
    | Counter c -> decode s c j
    | Group g -> (
      match J.member g.key j with
      | Some J.Null -> ()
      | Some (J.Obj _ as o) -> decode s g o
      | _ -> raise Exit)
  in
  match (j, J.member "type" j, J.member "routine" j) with
  | J.Obj _, Some (J.Str "routine_stats"), Some (J.Str routine) -> (
    let s = fresh_stats routine in
    match List.iter (row s) stat_rows with () -> Some s | exception Exit -> None)
  | _ -> None

let reassoc_config ~distribute =
  { Epre_reassoc.Expr_tree.default_config with Epre_reassoc.Expr_tree.distribute }

type entry = {
  name : string;
  description : string;
  step : routine_stats -> Routine.t -> unit;
  checks : Epre_harness.Harness.checks;
}

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
  let reassociate distribute =
    adds reassoc (Epre_reassoc.Reassociate.run ~config:(reassoc_config ~distribute))
  in
  let peephole mul_to_shift =
    adds rewrites (Epre_opt.Peephole.run ~config:{ Epre_opt.Peephole.mul_to_shift })
  in
  [
    e "naming" "re-establish the Section 2.2 expression-naming discipline"
      (adds renamed Epre_opt.Naming.run);
    e "pre" "partial redundancy elimination (edge placement)"
      ~post:[ "L001" ] ~audit:true ~certify:C.motion
      (adds pre Epre_pre.Pre.run);
    e "pre-classic" "Morel-Renvoise PRE (block-end placement; ablation)"
      ~post:[ "L001" ] ~audit:true ~certify:C.motion
      (adds pre Epre_pre.Pre.run_classic);
    e "reassociate"
      "global reassociation, no distribution (Section 3.1); -O reassociation's \
       reassociation stage"
      ~post:[ "L007" ] ~audit:false (reassociate false);
    e "distribute"
      "global reassociation with distribution of * over +; -O distribution's \
       reassociation stage"
      ~post:[ "L007" ] ~audit:false (reassociate true);
    e "gvn" "partition-based global value numbering (Section 3.2)" ~audit:false
      ~certify:C.values (adds gvn Epre_gvn.Gvn.run);
    e "constprop" "sparse conditional constant propagation" ~certify:C.values
      (adds folded Epre_opt.Constprop.run);
    e "peephole" "global peephole optimization" ~certify:C.values (peephole false);
    e "peephole-shift"
      "peephole including mul-to-shift rewriting (Section 5.2); the levels' \
       peephole stage"
      ~certify:C.values (peephole true);
    e "dce" "dead code elimination" ~post:[ "L002" ] ~certify:C.motion
      (adds removed Epre_opt.Dce.run);
    e "adce" "aggressive DCE via control dependence (Cytron 7.1; extension)"
      ~post:[ "L002" ] (adds removed Epre_opt.Adce.run);
    e "coalesce" "Chaitin-style copy coalescing" ~post:[ "L003" ] ~certify:C.values
      (adds coalesced Epre_opt.Coalesce.run);
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
let run_routine ~dump ~poll passes (r : Routine.t) =
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
          dump np.Epre_harness.Harness.pass_name r)
        passes;
      Routine.validate r)

let optimize_routine ?(dump = fun _ _ -> ()) ?(poll = fun () -> ())
    ?(wrap = fun passes -> passes) ~level (r : Routine.t) =
  let stats = fresh_stats r.Routine.name in
  run_routine ~dump ~poll (wrap (level_passes_into ~level ~stats_for:(fun _ -> stats))) r;
  record_metrics stats;
  stats

let optimize ?dump ~level (p : Program.t) =
  Epre_telemetry.Telemetry.Span.with_ ~kind:"pipeline"
    ~name:(level_to_string level) (fun () ->
      List.map (optimize_routine ?dump ~level) (Program.routines p))

let run_passes ?(dump = fun _ _ -> ()) passes (p : Program.t) =
  Epre_telemetry.Telemetry.Span.with_ ~kind:"pipeline" ~name:"passes" (fun () ->
      List.iter (run_routine ~dump ~poll:ignore passes) (Program.routines p))

let optimized_copy ?dump ~level (p : Program.t) =
  let p' = Program.copy p in
  (p', optimize ?dump ~level p')

(* Splice [np] into [passes] at [at] (clamped to the sequence bounds). *)
let splice passes ~at np =
  let rec go i = function
    | x :: rest when i < at -> x :: go (i + 1) rest
    | rest -> np :: rest
  in
  go 0 passes

let inject_faults faults passes =
  List.fold_left (fun ps (at, np) -> splice ps ~at np) passes faults

let optimize_supervised ?dump ?(inject = []) ~config ~level (p : Program.t) =
  let stats = List.map (fun (r : Routine.t) -> fresh_stats r.name) (Program.routines p) in
  let stats_for (r : Routine.t) = List.find (fun s -> s.routine = r.name) stats in
  let passes = inject_faults inject (level_passes_into ~level ~stats_for) in
  let records =
    (* Per-(pass, routine) spans come from the harness itself. *)
    Epre_telemetry.Telemetry.Span.with_ ~kind:"pipeline"
      ~name:(level_to_string level ^ "/supervised") (fun () ->
        Epre_harness.Harness.supervise ?dump config ~passes p)
  in
  List.iter record_metrics stats;
  (stats, records)
