(** The [L0xx] lints. See the interface. *)

open Epre_ir
module Defuse = Epre_analysis.Defuse
module Order = Epre_analysis.Order
module Ssa = Epre_ssa.Ssa
module Rank = Epre_reassoc.Rank

let warn ~rule ~routine ?block ?instr fmt =
  Printf.ksprintf
    (fun msg ->
      Diag.make ~rule ~severity:Diag.Warn ~routine ?block ?instr msg)
    fmt

(* L001: an edge from a multi-successor block into a multi-predecessor
   block. PRE needs these split to have a legal insertion point. *)
let critical_edges (r : Routine.t) ~order =
  let cfg = r.Routine.cfg in
  let preds = Cfg.preds cfg in
  let out = ref [] in
  Cfg.iter_blocks
    (fun b ->
      let id = b.Block.id in
      if Order.is_reachable order id then
        match Instr.term_succs b.Block.term with
        | [] | [ _ ] -> ()
        | succs ->
          List.iter
            (fun s ->
              if Cfg.mem cfg s && List.length preds.(s) > 1 then
                out :=
                  warn ~rule:"L001" ~routine:r.Routine.name ~block:id
                    "critical edge B%d -> B%d is unsplit" id s
                  :: !out)
            succs)
    cfg;
  !out

(* L002 dead pure instruction, L003 dead/self copy, L004 empty forwarding
   block, L005 redundant phi, L006 dead phi. One Defuse pass serves all
   of them. *)
let dead_and_shape (r : Routine.t) ~order =
  let du = Defuse.compute r in
  let name = r.Routine.name in
  let out = ref [] in
  Cfg.iter_blocks
    (fun b ->
      let id = b.Block.id in
      if Order.is_reachable order id then begin
        List.iteri
          (fun idx i ->
            match i with
            | Instr.Copy { dst; src } ->
              if dst = src then
                out :=
                  warn ~rule:"L003" ~routine:name ~block:id ~instr:idx
                    "self copy of r%d" dst
                  :: !out
              else if Defuse.use_count du dst = 0 then
                out :=
                  warn ~rule:"L003" ~routine:name ~block:id ~instr:idx
                    "copy into r%d, which is never used" dst
                  :: !out
            | Instr.Phi { dst; args } ->
              let non_self =
                List.sort_uniq Int.compare
                  (List.filter_map
                     (fun (_, a) -> if a = dst then None else Some a)
                     args)
              in
              if List.length non_self <= 1 then
                out :=
                  warn ~rule:"L005" ~routine:name ~block:id ~instr:idx
                    "phi for r%d is redundant: all arguments are identical"
                    dst
                  :: !out
              else if Defuse.use_count du dst = 0 then
                out :=
                  warn ~rule:"L006" ~routine:name ~block:id ~instr:idx
                    "phi for r%d is never used (pruned SSA would omit it)"
                    dst
                  :: !out
            | _ -> begin
              match Instr.def i with
              | Some d
                when Instr.is_pure i && Defuse.use_count du d = 0 ->
                out :=
                  warn ~rule:"L002" ~routine:name ~block:id ~instr:idx
                    "pure instruction defines r%d, which is never used" d
                  :: !out
              | _ -> ()
            end)
          b.Block.instrs;
        match (b.Block.instrs, b.Block.term) with
        | [], Instr.Jump t
          when id <> Cfg.entry r.Routine.cfg && t <> id ->
          out :=
            warn ~rule:"L004" ~routine:name ~block:id
              "empty block only forwards to B%d" t
            :: !out
        | _ -> ()
      end)
    r.Routine.cfg;
  !out

(* L007: operands of a commutative, associative(-modulo-rounding) binop
   out of rank order. Reassociation sorts n-ary operands by ascending
   rank and left-folds, so rank(a) <= rank(b) afterwards. Ranks need SSA;
   outside SSA the check runs on a throwaway SSA copy, mapping indices
   back past the inserted phis (SSA construction renames registers and
   prepends phis but never reorders a block's instructions). *)
let rank_order (r : Routine.t) =
  try
    let ssa_r, graph, built =
      if r.Routine.in_ssa then (r, Epre_analysis.Dataflow.graph r.Routine.cfg, false)
      else begin
        let c = Routine.copy r in
        let { Ssa.graph; _ } = Ssa.build c in
        (c, graph, true)
      end
    in
    let rank = Rank.compute graph ssa_r in
    let out = ref [] in
    Cfg.iter_blocks
      (fun b ->
        let id = b.Block.id in
        let nphis =
          List.length
            (List.filter
               (function Instr.Phi _ -> true | _ -> false)
               b.Block.instrs)
        in
        List.iteri
          (fun idx i ->
            match i with
            | Instr.Binop { op; a; b = rb; _ }
              when Op.associative_modulo_rounding op && Op.commutative op
              ->
              let ra = Rank.of_reg rank a and rbk = Rank.of_reg rank rb in
              if ra > rbk then
                let orig_idx = if built then idx - nphis else idx in
                out :=
                  warn ~rule:"L007" ~routine:r.Routine.name ~block:id
                    ~instr:(max 0 orig_idx)
                    "operands of %s are out of rank order (%d > %d)"
                    (Op.binop_name op) ra rbk
                  :: !out
            | _ -> ())
          b.Block.instrs)
      ssa_r.Routine.cfg;
    !out
  with _ ->
    (* A routine the SSA builder rejects is reported by V/T rules; the
       lint stays quiet rather than crashing on it. *)
    []

(* The three lint families, each run only when [wanted] accepts the rule
   ids it can report; one [Order] serves the two that need it. *)
let run_families ~wanted (r : Routine.t) =
  let order = lazy (Order.compute r.Routine.cfg) in
  (if wanted [ "L001" ] then critical_edges r ~order:(Lazy.force order) else [])
  @ (if wanted [ "L002"; "L003"; "L004"; "L005"; "L006" ] then
       dead_and_shape r ~order:(Lazy.force order)
     else [])
  @ if wanted [ "L007" ] then rank_order r else []

let check r = List.sort Diag.compare (run_families ~wanted:(fun _ -> true) r)

let check_only ids r =
  let wanted family = List.exists (fun id -> List.mem id ids) family in
  List.sort Diag.compare
    (List.filter (fun (d : Diag.t) -> List.mem d.Diag.rule ids) (run_families ~wanted r))
