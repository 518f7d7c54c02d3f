(** Verifier-side driver for the redundancy auditor. See the interface. *)

open Epre_ir
module Audit = Epre_analysis.Audit
module Tjson = Epre_telemetry.Tjson
module Metrics = Epre_telemetry.Metrics

let severity_of rule =
  match Rules.find rule with
  | Some r -> r.Rules.severity
  | None -> Diag.Warn

let diag_of_finding ~routine (f : Audit.finding) =
  {
    Diag.rule = f.Audit.rule;
    severity = severity_of f.Audit.rule;
    loc = { Diag.routine; block = f.Audit.block; instr = f.Audit.index };
    message = f.Audit.message;
  }

let auditable (r : Routine.t) =
  (not r.Routine.in_ssa) && Verify.structurally_sound r

let check_routine ?(expect_pre = false) ?baseline (r : Routine.t) =
  if not (auditable r) then None
  else
    let baseline =
      match baseline with
      | Some b when auditable b -> Some b
      | _ -> None
    in
    let report = Audit.run ~expect_pre ?baseline r in
    let diags =
      List.sort Diag.compare
        (List.map (diag_of_finding ~routine:r.Routine.name) report.Audit.findings)
    in
    Some (report, diags)

let check_program ?(expect_pre = false) ?baseline (p : Program.t) =
  let reports = ref [] in
  let diags = ref [] in
  List.iter
    (fun (r : Routine.t) ->
      let base =
        Option.bind baseline (fun b -> Program.find b r.Routine.name)
      in
      match check_routine ~expect_pre ?baseline:base r with
      | None -> ()
      | Some (report, ds) ->
        reports := (r.Routine.name, report) :: !reports;
        diags := ds :: !diags)
    (Program.routines p);
  (List.rev !reports, List.concat (List.rev !diags))

let check_post_pass ~expect_pre ~baseline r =
  match check_routine ~expect_pre ~baseline r with
  | None -> []
  | Some (_, diags) -> diags

let site_to_tjson (s : Audit.site) =
  Tjson.Obj
    [
      ("block", Tjson.Int s.Audit.block);
      ("index", Tjson.Int s.Audit.index);
      ("dst", Tjson.Int s.Audit.dst);
      ("text", Tjson.Str s.Audit.text);
      ( "classification",
        Tjson.Str (Audit.classification_to_string s.Audit.cls) );
      ( "value_regs",
        Tjson.Arr (List.map (fun r -> Tjson.Int r) s.Audit.value_regs) );
      ("speculative", Tjson.Bool s.Audit.speculative);
    ]

let report_to_tjson ~routine (rep : Audit.report) =
  let opt_int name = function
    | Some n -> [ (name, Tjson.Int n) ]
    | None -> []
  in
  Tjson.Obj
    ([
       ("routine", Tjson.Str routine);
       ("sites", Tjson.Arr (List.map site_to_tjson rep.Audit.sites));
       ("residual", Tjson.Int (Audit.residual rep));
       ( "block_pressure",
         Tjson.Arr
           (List.map
              (fun (b, p) ->
                Tjson.Obj [ ("block", Tjson.Int b); ("pressure", Tjson.Int p) ])
              rep.Audit.block_pressure) );
       ("max_pressure", Tjson.Int rep.Audit.max_pressure);
       ("speculative_count", Tjson.Int rep.Audit.speculative_count);
     ]
    @ opt_int "baseline_max_pressure" rep.Audit.baseline_max_pressure
    @ opt_int "baseline_speculative_count" rep.Audit.baseline_speculative_count)

let record_metrics diags =
  List.iter
    (fun (d : Diag.t) ->
      Metrics.incr ~routine:d.Diag.loc.Diag.routine
        ~name:("analyze." ^ d.Diag.rule))
    diags
