(** Supervised pass execution: checkpoint, run, validate, roll back.

    See the interface for the model. Execution is pass-major — for each
    pass, every routine is transformed and validated before the next pass
    starts — so translation validation can interpret the whole program
    (calls cross routines) while only one routine differs from the last
    known-good state at any moment.

    Validation re-derives only what a step could have changed. Whether
    the routine still equals its snapshot is computed once per step; if
    it does, the step reuses the type inference of the last accepted
    program, the routine's V part, and (at [Exec]) the last observation.
    The T rules and the pass's postcondition lints run on every step.
    What a step is checked for beyond that is read off its [checks]. *)

open Epre_ir

type validation = Off | Ir | Exec

let validation_of_string = function
  | "off" -> Some Off
  | "ir" -> Some Ir
  | "exec" -> Some Exec
  | _ -> None

let validation_to_string = function Off -> "off" | Ir -> "ir" | Exec -> "exec"

type reason =
  | Pass_exception of string
  | Ir_violation of string
  | Behaviour_mismatch of string

let reason_to_string = function
  | Pass_exception m -> "pass raised: " ^ m
  | Ir_violation m -> "ill-formed IR: " ^ m
  | Behaviour_mismatch m -> "behaviour mismatch: " ^ m

type outcome = Passed | Rolled_back of reason

type record = {
  pass : string;
  routine : string;
  outcome : outcome;
  duration_ms : float;
  meta : (string * Epre_telemetry.Tjson.t) list;
}

type config = {
  validation : validation;
  fuel : int;
  keep_going : bool;
  audit : bool;
}

let default_config =
  {
    validation = Ir;
    fuel = Epre_interp.Interp.default_fuel;
    keep_going = true;
    audit = false;
  }

exception Supervision_failed of record

type checks =
  { post : string list; audit : bool option; certify : Epre_verify.Certify.checker option }

let no_checks = { post = []; audit = None; certify = None }

type named_pass = { pass_name : string; run : Routine.t -> unit; checks : checks }

type obs = (Value.t option * Value.t list, string) result

(* Observable behaviour plus the completed run; [Error] carries the
   reason interpretation failed. *)
let observe_run ~fuel p =
  match Epre_interp.Interp.run ~fuel p ~entry:"main" ~args:[] with
  | r -> (Ok (r.Epre_interp.Interp.return_value, r.Epre_interp.Interp.trace), Some r)
  | exception Epre_interp.Interp.Runtime_error m -> (Error ("runtime error: " ^ m), None)
  | exception Epre_interp.Interp.Out_of_fuel -> (Error "out of fuel", None)
  | exception Invalid_argument m -> (Error m, None)

(* The dynamic operation count feeds fuel adaptation. *)
let observe_counted ~fuel p =
  let obs, run = observe_run ~fuel p in
  (obs, Option.map (fun r -> Epre_interp.Counts.total r.Epre_interp.Interp.counts) run)

let observe ~fuel p = fst (observe_counted ~fuel p)

let recheck_budget ~fuel n = min fuel ((4 * n) + 10_000)

(* Exact equality first (NaN = NaN, an infinity = itself), then
   reassociation noise between finite floats: with an infinite side the
   tolerance is infinite too and would accept +inf against -inf. *)
let value_close a b =
  Value.equal a b
  ||
  match (a, b) with
  | Value.F x, Value.F y ->
    Float.is_finite x && Float.is_finite y
    && Float.abs (x -. y) <= 1e-9 *. (Float.abs x +. Float.abs y +. 1.0)
  | _ -> false

let obs_equal a b =
  match (a, b) with
  | Error a, Error b -> a = b
  | Ok (ra, ta), Ok (rb, tb) ->
    (match (ra, rb) with
    | Some a, Some b -> value_close a b
    | None, None -> true
    | Some _, None | None, Some _ -> false)
    && List.length ta = List.length tb
    && List.for_all2 value_close ta tb
  | Ok _, Error _ | Error _, Ok _ -> false

let describe_obs = function
  | Error m -> m
  | Ok (ret, trace) ->
    Printf.sprintf "return %s, %d emits"
      (match ret with Some v -> Value.to_string v | None -> "-")
      (List.length trace)

(* IR validation through the verifier: every structural and type rule
   plus the pass's postcondition lints, from the verdict's two parts
   ([Verify.check_post_pass] composes the same two). The first
   error-severity diagnostic rolls the pass back (its rule id lands in
   the record's meta); warnings are only counted. Per-rule telemetry
   counters are bumped either way. *)
let check_ir ~post ~tc v (r : Routine.t) =
  let diags = Epre_verify.Verify.post_pass_verdict ~post ~tc v r in
  Epre_verify.Verify.record_metrics diags;
  match Epre_verify.Verify.errors diags with
  | d :: _ -> Error (Epre_verify.Diag.to_string d, d.Epre_verify.Diag.rule)
  | [] -> Ok (List.length (Epre_verify.Verify.warnings diags))

let rolled_back records =
  List.filter (fun r -> match r.outcome with Rolled_back _ -> true | Passed -> false) records

let supervise ?(dump = fun _ _ -> ()) config ~passes (p : Program.t) =
  (* Post-pass interpretation gets a budget derived from the reference run,
     so a pass that introduces an infinite loop burns seconds, not the full
     [config.fuel]. *)
  let check_fuel = ref config.fuel in
  (* Whether a run under [check_fuel] reproduces [current_obs]: always,
     unless the reference run burned more fuel (phi moves count too) than
     the budget derived from its operation count. *)
  let reproducible = ref true in
  let routines = Program.routines p in
  (* Upper bounds on the fuel each routine, by position, burns itself in
     a run of the current program: what the last real observation burned
     there, times the growth of each step certified on it since. A step's
     growth bounds its routine's own operations, not its callees', so the
     bounds are kept apart. A step is certified only while their sum
     stays within [check_fuel], so a certified program still completes
     under it. *)
  let fuel_bound = Array.make (List.length routines) infinity in
  let bound_by (r : Epre_interp.Interp.result) =
    Array.iteri (fun k f -> fuel_bound.(k) <- float_of_int f) r.Epre_interp.Interp.own_fuel
  in
  let current_obs =
    if config.validation = Exec then begin
      let obs, run = observe_run ~fuel:config.fuel p in
      Option.iter
        (fun (r : Epre_interp.Interp.result) ->
          check_fuel :=
            recheck_budget ~fuel:config.fuel (Epre_interp.Counts.total r.Epre_interp.Interp.counts);
          bound_by r;
          reproducible := Array.fold_left ( + ) 0 r.Epre_interp.Interp.own_fuel <= !check_fuel)
        run;
      Some obs
    end
    else None
  in
  let current_obs = ref current_obs in
  (* The verifier's two parts on the last accepted program: its type
     inference, and each routine's V part (by position). Both are pure
     functions of that state, which a rollback restores exactly and a
     step changes only in its own routine; so a step that left its
     routine equal to its snapshot reuses them, and they are replaced
     only after a [Passed] step, by the parts computed on it. *)
  let accepted_tc = ref None in
  let accepted_v = Array.make (List.length routines) None in
  let records = ref [] in
  List.iter
    (fun np ->
      List.iteri
        (fun k (r : Routine.t) ->
          let snapshot = Routine.copy r in
          let roll_back ?(meta = []) reason =
            Routine.restore r ~from:snapshot;
            (Rolled_back reason, meta)
          in
          (* The pass span's own clock readings time the step: they feed
             the [pass.<name>] histogram and the record's duration. *)
          let (outcome, meta), dur_ns =
            Epre_telemetry.Telemetry.Span.timed ~kind:"pass" ~routine:r
              ~hist:("pass." ^ np.pass_name) ~name:np.pass_name
            @@ fun () ->
            match np.run r with
            | exception e -> roll_back (Pass_exception (Printexc.to_string e))
            | () -> begin
              let unchanged = config.validation <> Off && Routine.equal r snapshot in
              let parts =
                if config.validation = Off then None
                else
                  let reuse cached fresh =
                    match cached with Some x when unchanged -> x | _ -> fresh ()
                  in
                  Some
                    ( reuse !accepted_tc (fun () -> Epre_verify.Typecheck.infer p),
                      reuse accepted_v.(k) (fun () -> Epre_verify.Verify.v_part r) )
              in
              let accept meta =
                Option.iter
                  (fun (tc, v) ->
                    accepted_tc := Some tc;
                    accepted_v.(k) <- Some v)
                  parts;
                (Passed, meta)
              in
              match
                match parts with
                | None -> Ok 0
                | Some (tc, v) -> check_ir ~post:np.checks.post ~tc v r
              with
              | Error (m, rule) ->
                roll_back
                  ~meta:[ ("verify_rule", Epre_telemetry.Tjson.Str rule) ]
                  (Ir_violation m)
              | Ok warns -> begin
                (* The audit tier: the redundancy auditor's A rules as
                   post-pass checks against the pre-pass snapshot. Audit
                   findings are effectiveness judgements, not correctness
                   ones — they land in the record's meta and telemetry but
                   NEVER roll the pass back. *)
                let audit_meta =
                  match np.checks.audit with
                  | Some expect_pre when config.audit -> (
                    match
                      Epre_verify.Analyze.check_post_pass ~expect_pre
                        ~baseline:snapshot r
                    with
                    | [] -> []
                    | diags ->
                      Epre_verify.Analyze.record_metrics diags;
                      let rules =
                        List.sort_uniq compare
                          (List.map
                             (fun (d : Epre_verify.Diag.t) -> d.Epre_verify.Diag.rule)
                             diags)
                      in
                      [
                        ( "audit_findings",
                          Epre_telemetry.Tjson.Int (List.length diags) );
                        ( "audit_rules",
                          Epre_telemetry.Tjson.Arr
                            (List.map (fun id -> Epre_telemetry.Tjson.Str id) rules)
                        );
                      ])
                  | _ -> []
                in
                let meta =
                  audit_meta
                  @
                  if warns > 0 then
                    [ ("verify_warnings", Epre_telemetry.Tjson.Int warns) ]
                  else []
                in
                match !current_obs with
                | None -> accept meta
                (* [current_obs] describes exactly the pre-step program
                   (a rollback restores it) and, when [reproducible], is
                   what a run under [check_fuel] gives. The interpreter
                   is deterministic, so a step that left the routine
                   equal to its snapshot would observe [before] again. *)
                | Some _ when !reproducible && unchanged -> accept meta
                | Some before -> begin
                  (* A certified step computes exactly what its input did
                     on the observed run, within [check_fuel]; so
                     [before] is what observing it would give. *)
                  let growth =
                    match (before, np.checks.certify) with
                    | Ok _, Some check when !reproducible -> check ~before:snapshot ~after:r
                    | _ -> None
                  in
                  let count what =
                    Epre_telemetry.Metrics.incr ~routine:r.Routine.name
                      ~name:("harness." ^ what ^ "." ^ np.pass_name)
                  in
                  let within g =
                    Array.fold_left ( +. ) 0.0 fuel_bound -. fuel_bound.(k) +. (fuel_bound.(k) *. g)
                    <= float_of_int !check_fuel
                  in
                  match growth with
                  | Some g when within g ->
                    fuel_bound.(k) <- fuel_bound.(k) *. g;
                    count "certified";
                    accept meta
                  | _ -> (
                    (* Proven, but the bound would outgrow [check_fuel]. *)
                    if growth <> None then count "fuel_bound";
                    count "observed";
                    match observe_run ~fuel:!check_fuel p with
                    | after, run when obs_equal before after ->
                      current_obs := Some after;
                      reproducible := true;
                      Option.iter bound_by run;
                      accept meta
                    | after, _ ->
                      roll_back
                        (Behaviour_mismatch
                           (Printf.sprintf "%s, was: %s" (describe_obs after)
                              (describe_obs before))))
                end
              end
            end
          in
          let record =
            { pass = np.pass_name; routine = r.Routine.name; outcome;
              duration_ms = float_of_int dur_ns /. 1e6; meta }
          in
          records := record :: !records;
          dump np.pass_name r;
          match outcome with
          | Rolled_back reason ->
            Epre_telemetry.Log.warn ~event:"harness.rollback"
              ~fields:
                [ ("pass", Epre_telemetry.Tjson.Str np.pass_name);
                  ("routine", Epre_telemetry.Tjson.Str r.Routine.name) ]
              (reason_to_string reason);
            if not config.keep_going then raise (Supervision_failed record)
          | Passed -> ())
        routines)
    passes;
  List.rev !records
