(** The verifier driver. See the interface. *)

open Epre_ir
module Tjson = Epre_telemetry.Tjson
module Metrics = Epre_telemetry.Metrics
module Order = Epre_analysis.Order
module Initialized = Epre_analysis.Initialized
module Dataflow = Epre_analysis.Dataflow
module Bitset = Epre_util.Bitset
module Ssa_check = Epre_ssa.Ssa_check

type config = { rules : string list option; include_lints : bool }

let default = { rules = None; include_lints = false }

let lint_config = { rules = None; include_lints = true }

let diag ~rule ~routine ?block ?instr fmt =
  let severity =
    match Rules.find rule with
    | Some r -> r.Rules.severity
    | None -> Diag.Error
  in
  Printf.ksprintf
    (fun msg -> Diag.make ~rule ~severity ~routine ?block ?instr msg)
    fmt

(* ------------------------------------------------------------------ *)
(* Structural rules                                                   *)
(* ------------------------------------------------------------------ *)

(* The fatal subset: violations that make the rest of the verifier
   meaningless (or crash-prone) — every later rule indexes arrays by
   block id and register number. *)
let structural_fatal (r : Routine.t) =
  let name = r.Routine.name in
  let cfg = r.Routine.cfg in
  if not (Cfg.mem cfg (Cfg.entry cfg)) then
    [ diag ~rule:"V001" ~routine:name "entry block B%d is missing"
        (Cfg.entry cfg) ]
  else begin
    let out = ref [] in
    let width = r.Routine.next_reg in
    let bad_reg u = u < 0 || u >= width in
    Cfg.iter_blocks
      (fun b ->
        let id = b.Block.id in
        List.iteri
          (fun idx i ->
            List.iter
              (fun u ->
                if bad_reg u then
                  out :=
                    diag ~rule:"V003" ~routine:name ~block:id ~instr:idx
                      "use of r%d is out of range (regs %d)" u width
                    :: !out)
              (Instr.uses i);
            match Instr.def i with
            | Some d when bad_reg d ->
              out :=
                diag ~rule:"V003" ~routine:name ~block:id ~instr:idx
                  "definition of r%d is out of range (regs %d)" d width
                :: !out
            | _ -> ())
          b.Block.instrs;
        let nterm = List.length b.Block.instrs in
        List.iter
          (fun u ->
            if bad_reg u then
              out :=
                diag ~rule:"V003" ~routine:name ~block:id ~instr:nterm
                  "use of r%d is out of range (regs %d)" u width
                :: !out)
          (Instr.term_uses b.Block.term);
        List.iter
          (fun s ->
            if not (Cfg.mem cfg s) then
              out :=
                diag ~rule:"V002" ~routine:name ~block:id
                  "terminator targets missing block B%d" s
                :: !out)
          (Instr.term_succs b.Block.term))
      cfg;
    !out
  end

let structural_rest (g : Dataflow.graph) (r : Routine.t) =
  let name = r.Routine.name in
  let cfg = r.Routine.cfg in
  let order = g.Dataflow.order in
  let preds = Cfg.preds cfg in
  let out = ref [] in
  let saw_ret = ref false in
  Cfg.iter_blocks
    (fun b ->
      let id = b.Block.id in
      if not (Order.is_reachable order id) then
        out :=
          diag ~rule:"V009" ~routine:name ~block:id
            "block is unreachable from the entry"
          :: !out;
      (match b.Block.term with
      | Instr.Ret _ when Order.is_reachable order id -> saw_ret := true
      | _ -> ());
      let seen_non_phi = ref false in
      List.iteri
        (fun idx i ->
          match i with
          | Instr.Phi { args; _ } ->
            if !seen_non_phi then
              out :=
                diag ~rule:"V004" ~routine:name ~block:id ~instr:idx
                  "phi appears after a non-phi instruction"
                :: !out;
            if not r.Routine.in_ssa then
              out :=
                diag ~rule:"V006" ~routine:name ~block:id ~instr:idx
                  "phi present while the routine is not in SSA form"
                :: !out;
            let got = List.sort_uniq Int.compare (List.map fst args) in
            let want = List.sort_uniq Int.compare preds.(id) in
            if got <> want then
              out :=
                diag ~rule:"V005" ~routine:name ~block:id ~instr:idx
                  "phi arguments name predecessors {%s}, CFG has {%s}"
                  (String.concat ", "
                     (List.map (Printf.sprintf "B%d") got))
                  (String.concat ", "
                     (List.map (Printf.sprintf "B%d") want))
                :: !out
          | _ -> seen_non_phi := true)
        b.Block.instrs)
    cfg;
  if not !saw_ret then
    out :=
      diag ~rule:"V010" ~routine:name
        "no return terminator is reachable from the entry"
      :: !out;
  !out

(* ------------------------------------------------------------------ *)
(* Flow rules: V007 in SSA, V008 outside it                           *)
(* ------------------------------------------------------------------ *)

let flow_ssa (r : Routine.t) =
  try
    Ssa_check.check r;
    []
  with
  | Ssa_check.Not_ssa msg ->
    [ diag ~rule:"V007" ~routine:r.Routine.name "%s" msg ]
  | Routine.Ill_formed msg ->
    [ diag ~rule:"V007" ~routine:r.Routine.name "%s" msg ]

(* Definite assignment: walk each reachable block with the set of
   registers assigned on every path to it, flagging reads outside the
   set. Phis are skipped — they only occur (erroneously) outside SSA
   here and are already reported as V006. *)
let flow_non_ssa (g : Dataflow.graph) (r : Routine.t) =
  let name = r.Routine.name in
  let init = Initialized.compute g r in
  let order = g.Dataflow.order in
  let width = max 1 r.Routine.next_reg in
  let out = ref [] in
  Cfg.iter_blocks
    (fun b ->
      let id = b.Block.id in
      if Order.is_reachable order id then begin
        let live = Bitset.copy (Initialized.on_entry init id) in
        let check_use idx u =
          if u >= 0 && u < width && not (Bitset.mem live u) then
            out :=
              diag ~rule:"V008" ~routine:name ~block:id ~instr:idx
                "r%d may be read before any definition reaches it" u
              :: !out
        in
        List.iteri
          (fun idx i ->
            (match i with
            | Instr.Phi _ -> ()
            | _ -> List.iter (check_use idx) (Instr.uses i));
            match Instr.def i with
            | Some d when d >= 0 && d < width -> Bitset.add live d
            | _ -> ())
          b.Block.instrs;
        List.iter
          (check_use (List.length b.Block.instrs))
          (Instr.term_uses b.Block.term)
      end)
    r.Routine.cfg;
  !out

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let structurally_sound r = structural_fatal r = []

let apply_filter config diags =
  match config.rules with
  | None -> diags
  | Some ids ->
    List.filter (fun (d : Diag.t) -> List.mem d.Diag.rule ids) diags

(* The routine-only half of a verdict: the fatal structural subset
   alone, or the rest of the V rules. Everything here reads only the
   fields [Routine.equal] compares. *)
type v_part = Fatal of Diag.t list | Sound of Diag.t list

let v_part (r : Routine.t) =
  match structural_fatal r with
  | _ :: _ as fatal -> Fatal fatal
  | [] ->
    let g = Dataflow.graph r.Routine.cfg in
    let flow = if r.Routine.in_ssa then flow_ssa r else flow_non_ssa g r in
    Sound (structural_rest g r @ flow)

(* The program-dependent half (T rules under [tc], then [lints]) joined
   to the V part; a fatal V part short-circuits it. *)
let with_t_part ~tc ~lints v (r : Routine.t) =
  match v with
  | Fatal fatal -> List.sort Diag.compare fatal
  | Sound v -> List.sort Diag.compare (v @ Typecheck.check tc r @ lints r)

let check_program ?(config = default) p =
  let tc = Typecheck.infer p in
  let lints r = if config.include_lints then Lints.check r else [] in
  List.concat_map (fun r -> apply_filter config (with_t_part ~tc ~lints (v_part r) r))
    (Program.routines p)

(* ------------------------------------------------------------------ *)
(* Per-pass postconditions                                            *)
(* ------------------------------------------------------------------ *)

(* Lint rules a pass is expected to have discharged. All postconditions
   are warnings, so a pass that misses one is surfaced, not rolled
   back — the paper's transformations are improvements, not contracts. *)
let postcondition_table =
  [
    ("pre", [ "L001" ]);
    ("pre-classic", [ "L001" ]);
    ("reassociate", [ "L007" ]);
    ("distribute", [ "L007" ]);
    ("reassociation", [ "L007" ]);
    ("dce", [ "L002" ]);
    ("adce", [ "L002" ]);
    ("coalesce", [ "L003" ]);
    ("clean", [ "L004" ]);
    ("dvnt", [ "L005" ]);
  ]

let postconditions pass =
  match List.assoc_opt pass postcondition_table with
  | Some ids -> ids
  | None -> []

let post_pass_verdict ~pass ~tc v r =
  with_t_part ~tc ~lints:(Lints.check_only (postconditions pass)) v r

let check_post_pass ~pass ~program r =
  post_pass_verdict ~pass ~tc:(Typecheck.infer program) (v_part r) r

(* ------------------------------------------------------------------ *)
(* Report helpers                                                     *)
(* ------------------------------------------------------------------ *)

let errors = List.filter (fun d -> d.Diag.severity = Diag.Error)

let warnings = List.filter (fun d -> d.Diag.severity = Diag.Warn)

let render diags = String.concat "\n" (List.map Diag.to_string diags)

let to_tjson diags =
  Tjson.Obj
    [
      ("diagnostics", Tjson.Arr (List.map Diag.to_tjson diags));
      ("errors", Tjson.Int (List.length (errors diags)));
      ("warnings", Tjson.Int (List.length (warnings diags)));
    ]

let record_metrics diags =
  List.iter
    (fun (d : Diag.t) ->
      Metrics.incr ~routine:d.Diag.loc.Diag.routine
        ~name:("verify." ^ d.Diag.rule))
    diags
