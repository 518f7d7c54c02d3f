(** Regeneration of the paper's experimental study (Section 4).

    - [table1]: dynamic ILOC operation counts per workload at the four
      optimization levels, with the percentage columns of Table 1
      ([partial] vs baseline, [reassociation] vs partial, [distribution] vs
      reassociation, plus the [new] and [total] summaries);
    - [table2]: static operation counts before/after forward propagation
      and the resulting code growth factor, as in Table 2;
    - [hierarchy]: the Section 5.3 comparison of dominator-based CSE,
      available-expression CSE and PRE, all run after reassociation and
      value numbering.

    Absolute numbers differ from the paper's (different suite, different
    back end — see DESIGN.md); the claims under test are the *shapes*:
    PRE wins broadly, reassociation + GVN adds further improvement with
    occasional small losses, and the three redundancy eliminators form a
    hierarchy. *)

open Epre_ir
open Epre_workloads

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)

type table1_row = {
  name : string;
  baseline : int;
  partial : int;
  reassociation : int;
  distribution : int;
}

let dynamic_count (p : Program.t) =
  let _, _, total = Workloads.execute p in
  total

let run_level prog level =
  let p, _stats = Pipeline.optimized_copy ~level prog in
  dynamic_count p

(* Table regeneration is traced: one "experiment" span per table and per
   row, so a --trace-out of `eprec table1` shows where regeneration time
   goes. *)
let experiment_span name f =
  Epre_telemetry.Telemetry.Span.with_ ~kind:"experiment" ~name f

let table1_row (w : Workloads.t) =
  experiment_span ("table1:" ^ w.Workloads.name) (fun () ->
      let prog = Workloads.compile w in
      {
        name = w.Workloads.name;
        baseline = run_level prog Pipeline.Baseline;
        partial = run_level prog Pipeline.Partial;
        reassociation = run_level prog Pipeline.Reassociation;
        distribution = run_level prog Pipeline.Distribution;
      })

let table1 ?(workloads = Workloads.all) () =
  experiment_span "table1" (fun () -> List.map table1_row workloads)

(* Improvement of [now] over [prev], in percent; the paper prints nothing
   for no change, "0%" and "-0%" for tiny changes. *)
let improvement ~prev ~now =
  if prev <= 0 then 0.0 else 100.0 *. float_of_int (prev - now) /. float_of_int prev

let percent_cell ~prev ~now =
  if prev = now then ""
  else begin
    let p = improvement ~prev ~now in
    if Float.abs p < 0.5 then (if p >= 0.0 then "0%" else "-0%")
    else Printf.sprintf "%.0f%%" p
  end

let render_table1 rows =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "%-12s %12s %12s %5s %13s %5s %12s %5s %6s %6s\n" "routine"
       "baseline" "partial" "" "reassociation" "" "distribution" "" "new" "total");
  let sorted =
    List.sort
      (fun a b ->
        compare
          (improvement ~prev:b.partial ~now:b.distribution)
          (improvement ~prev:a.partial ~now:a.distribution))
      rows
  in
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-12s %12d %12d %5s %13d %5s %12d %5s %6s %6s\n" r.name
           r.baseline r.partial
           (percent_cell ~prev:r.baseline ~now:r.partial)
           r.reassociation
           (percent_cell ~prev:r.partial ~now:r.reassociation)
           r.distribution
           (percent_cell ~prev:r.reassociation ~now:r.distribution)
           (percent_cell ~prev:r.partial ~now:r.distribution)
           (percent_cell ~prev:r.baseline ~now:r.distribution)))
    sorted;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)

type table2_row = { name : string; before : int; after : int }

let expansion_factor r =
  if r.before = 0 then 1.0 else float_of_int r.after /. float_of_int r.before

(* Forward propagation's code growth, measured per program as the paper
   measures it per routine: static ILOC operations entering reassociation
   vs. after forward propagation (distribution off — the growth comes from
   propagation itself). *)
let table2_row (w : Workloads.t) =
  experiment_span ("table2:" ^ w.Workloads.name) @@ fun () ->
  let prog = Workloads.compile w in
  let stats =
    List.map
      (fun r ->
        Epre_reassoc.Reassociate.run
          ~config:(Pipeline.reassoc_config ~distribute:false)
          r)
      (Program.routines prog)
  in
  let before =
    List.fold_left (fun acc s -> acc + s.Epre_reassoc.Reassociate.before_ops) 0 stats
  in
  let after =
    List.fold_left (fun acc s -> acc + s.Epre_reassoc.Reassociate.after_ops) 0 stats
  in
  { name = w.Workloads.name; before; after }

let table2 ?(workloads = Workloads.all) () =
  experiment_span "table2" (fun () -> List.map table2_row workloads)

let render_table2 rows =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "%-12s %10s %10s %10s\n" "routine" "before" "after" "expansion");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-12s %10d %10d %10.3f\n" r.name r.before r.after
           (expansion_factor r)))
    (List.sort (fun a b -> compare a.name b.name) rows);
  let tb = List.fold_left (fun acc r -> acc + r.before) 0 rows in
  let ta = List.fold_left (fun acc r -> acc + r.after) 0 rows in
  Buffer.add_string buf
    (Printf.sprintf "%-12s %10d %10d %10.3f\n" "totals" tb ta
       (if tb = 0 then 1.0 else float_of_int ta /. float_of_int tb));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Section 5.3: the redundancy-elimination hierarchy                   *)

type hierarchy_row = {
  name : string;
  dom_cse : int;  (** method 1: dominator-based *)
  avail_cse : int;  (** method 2: available expressions *)
  pre : int;  (** method 3: partial redundancy elimination *)
  dom_cse_residual : int;  (** static effectiveness: redundant sites left *)
  avail_cse_residual : int;
  pre_residual : int;
}

(* Static effectiveness of an engine variant: evaluation sites the
   redundancy auditor still classifies fully or partially redundant
   after the variant ran — 0 means nothing left on the table. *)
let residual_count (p : Program.t) =
  List.fold_left
    (fun acc (r : Routine.t) ->
      acc + Epre_verify.Audit.residual (Epre_verify.Audit.run r))
    0 (Program.routines p)

(* Reassociation + GVN (encode value equivalence into names, as Section 5.3
   assumes), then one of the three eliminators (a registry spelling), then
   the baseline cleanup sequence. *)
let run_hierarchy_level prog eliminator =
  let p = Program.copy prog in
  Pipeline.run_passes
    (Passes.named ("reassociate,gvn," ^ eliminator ^ ",constprop,peephole,dce,coalesce,clean"))
    p;
  (dynamic_count p, residual_count p)

let hierarchy_row (w : Workloads.t) =
  experiment_span ("hierarchy:" ^ w.Workloads.name) (fun () ->
      let prog = Workloads.compile w in
      let dom_cse, dom_cse_residual = run_hierarchy_level prog "cse-dom" in
      let avail_cse, avail_cse_residual = run_hierarchy_level prog "naming,cse-avail" in
      let pre, pre_residual = run_hierarchy_level prog "naming,pre" in
      {
        name = w.Workloads.name;
        dom_cse;
        avail_cse;
        pre;
        dom_cse_residual;
        avail_cse_residual;
        pre_residual;
      })

let hierarchy ?(workloads = Workloads.all) () =
  experiment_span "hierarchy" (fun () -> List.map hierarchy_row workloads)

(* Dynamic operation counts, and in parentheses the static effectiveness
   score: redundant evaluation sites the auditor still sees ("left"). *)
let render_hierarchy rows =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "%-12s %19s %19s %19s\n" "routine" "dominator" "available"
       "pre");
  List.iter
    (fun r ->
      let cell count residual =
        Printf.sprintf "%d (%d left)" count residual
      in
      Buffer.add_string buf
        (Printf.sprintf "%-12s %19s %19s %19s\n" r.name
           (cell r.dom_cse r.dom_cse_residual)
           (cell r.avail_cse r.avail_cse_residual)
           (cell r.pre r.pre_residual)))
    (List.sort (fun a b -> compare a.name b.name) rows);
  Buffer.contents buf
