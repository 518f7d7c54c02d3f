(** Differential oracle. See the interface for the tiering. *)

module Harness = Epre_harness.Harness
module Bisect = Epre_harness.Bisect
module Pipeline = Epre.Pipeline
module Program = Epre_ir.Program
module Tjson = Epre_telemetry.Tjson

type failure_class =
  | Pass_exception
  | Ir_violation
  | Behaviour_mismatch
  | Fuel_divergence

let class_to_string = function
  | Pass_exception -> "pass-exception"
  | Ir_violation -> "ir-violation"
  | Behaviour_mismatch -> "behaviour-mismatch"
  | Fuel_divergence -> "fuel-divergence"

let class_of_string = function
  | "pass-exception" -> Some Pass_exception
  | "ir-violation" -> Some Ir_violation
  | "behaviour-mismatch" -> Some Behaviour_mismatch
  | "fuel-divergence" -> Some Fuel_divergence
  | _ -> None

type failure = {
  level : Pipeline.level;
  cls : failure_class;
  pass : string;
  routine : string;
  detail : string;
  rule : string option;
  culprit : Bisect.failure option;
}

type config = {
  levels : Pipeline.level list;
  chaos : (int * Harness.named_pass) option;
  chaos_name : string option;
  fuel : int;
  pinpoint : bool;
}

let default_config =
  { levels = Pipeline.all_levels; chaos = None; chaos_name = None;
    fuel = Epre_interp.Interp.default_fuel; pinpoint = false }

let passes_for config level =
  Pipeline.inject_faults (Option.to_list config.chaos) (Pipeline.level_passes ~level)

(* Fast tier for one level: supervise at the [Ir] tier with
   [keep_going = false] (per-pass structural checking, exceptions become
   rollbacks), then one final behaviour comparison against the
   unoptimized reference under a budget derived from the reference run. *)
let check_level config ~reference ~budget prog level =
  let passes = passes_for config level in
  let copy = Program.copy prog in
  let sup =
    {
      Harness.validation = Harness.Ir;
      fuel = config.fuel;
      keep_going = false;
      audit = false;
    }
  in
  match Harness.supervise sup ~passes copy with
  | exception Harness.Supervision_failed r ->
    let cls, detail =
      match r.Harness.outcome with
      | Harness.Rolled_back (Harness.Pass_exception m) -> (Pass_exception, m)
      | Harness.Rolled_back (Harness.Ir_violation m) -> (Ir_violation, m)
      | Harness.Rolled_back (Harness.Behaviour_mismatch m) ->
        (Behaviour_mismatch, m)
      | Harness.Passed -> assert false
    in
    let rule =
      match List.assoc_opt "verify_rule" r.Harness.meta with
      | Some (Tjson.Str id) -> Some id
      | _ -> None
    in
    Some
      { level; cls; pass = r.Harness.pass; routine = r.Harness.routine; detail;
        rule; culprit = None }
  | _records -> (
    let obs = Harness.observe ~fuel:budget copy in
    if Harness.obs_equal reference obs then None
    else
      let cls =
        match obs with
        | Error "out of fuel" -> Fuel_divergence
        | _ -> Behaviour_mismatch
      in
      Some
        { level; cls; pass = Pipeline.level_to_string level;
          routine = "<program>";
          detail =
            Printf.sprintf "optimized: %s; reference: %s"
              (Harness.describe_obs obs)
              (Harness.describe_obs reference);
          rule = None; culprit = None })

let pinpoint config prog level f =
  match Bisect.run ~fuel:config.fuel ~passes:(passes_for config level) prog with
  | None -> f
  | Some c ->
    { f with
      culprit = Some c;
      pass = c.Bisect.pass;
      routine = c.Bisect.routine }

let check config prog =
  match Harness.observe_counted ~fuel:config.fuel prog with
  | Error _, _ -> []
  | (Ok _ as reference), count ->
    let budget =
      match count with
      | Some n -> Harness.recheck_budget ~fuel:config.fuel n
      | None -> config.fuel
    in
    List.filter_map
      (fun level ->
        match check_level config ~reference ~budget prog level with
        | None -> None
        | Some f -> Some (if config.pinpoint then pinpoint config prog level f else f))
      config.levels

let failure_record ~seed ?chaos ?repro f =
  let reason =
    match f.cls with
    | Pass_exception -> Harness.Pass_exception f.detail
    | Ir_violation -> Harness.Ir_violation f.detail
    | Behaviour_mismatch | Fuel_divergence -> Harness.Behaviour_mismatch f.detail
  in
  let meta =
    [ ("fuzz_seed", Tjson.Int seed);
      ("fuzz_level", Tjson.Str (Pipeline.level_to_string f.level));
      ("fuzz_class", Tjson.Str (class_to_string f.cls)) ]
    @ (match f.rule with
      | None -> []
      | Some id -> [ ("fuzz_rule", Tjson.Str id) ])
    @ (match chaos with None -> [] | Some c -> [ ("fuzz_chaos", Tjson.Str c) ])
    @ match repro with None -> [] | Some p -> [ ("fuzz_repro", Tjson.Str p) ]
  in
  { Harness.pass = f.pass; routine = f.routine;
    outcome = Harness.Rolled_back reason; duration_ms = 0.; meta }
