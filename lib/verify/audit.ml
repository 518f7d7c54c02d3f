(** The redundancy auditor. See the interface. *)

open Epre_util
open Epre_ir
open Epre_analysis

type classification = Clean | Full | Partial | Value

let classification_to_string = function
  | Clean -> "clean"
  | Full -> "full"
  | Partial -> "partial"
  | Value -> "value"

type site = {
  block : int;
  index : int;
  dst : Instr.reg;
  text : string;
  cls : classification;
  holder : (int * int) option;
  speculative : bool;
}

type finding = {
  rule : string;
  block : int option;
  index : int option;
  message : string;
}

type report = {
  findings : finding list;
  sites : site list;
  block_pressure : (int * int) list;
  max_pressure : int;
  baseline_max_pressure : int option;
  speculative_count : int;
  baseline_speculative_count : int option;
}

(* Blocks live-in threshold for the A006 lifetime warning. *)
let lifetime_threshold = 8

(* ------------------------------------------------------------------ *)
(* Down-safety: the backward must-use system over registers.            *)
(* A register is "anticipated" at a point when every path from it reads *)
(* the register before redefining it — the register-level analog of     *)
(* expression anticipability, and the test for whether an evaluation's  *)
(* result was actually wanted where it was placed.                      *)

let must_use graph (r : Routine.t) =
  let cfg = r.Routine.cfg in
  let width = max 1 r.Routine.next_reg in
  let nblocks = Cfg.num_blocks cfg in
  let gen = Array.init nblocks (fun _ -> Bitset.create width) in
  let kill = Array.init nblocks (fun _ -> Bitset.create width) in
  Cfg.iter_blocks
    (fun b ->
      let id = b.Block.id in
      let read u =
        if u >= 0 && u < width && not (Bitset.mem kill.(id) u) then
          Bitset.add gen.(id) u
      in
      List.iter
        (fun i ->
          (match i with
          | Instr.Phi _ -> ()
          | _ -> List.iter read (Instr.uses i));
          match Instr.def i with
          | Some d when d >= 0 && d < width -> Bitset.add kill.(id) d
          | _ -> ())
        b.Block.instrs;
      List.iter read (Instr.term_uses b.Block.term))
    cfg;
  Dataflow.solve_backward graph
    { Dataflow.width; gen; kill; boundary = Bitset.create width; meet = Dataflow.Inter }

(* Is the evaluation at [idx] (defining [dst]) speculative? Scan the rest
   of the block: a read settles it, a redefinition wastes it, and past
   the terminator the block-exit must-use fact decides. *)
let speculative_at must (b : Block.t) ~dst ~idx =
  let rec tail n = function
    | [] ->
      if List.mem dst (Instr.term_uses b.Block.term) then false
      else not (Bitset.mem must.Dataflow.outs.(b.Block.id) dst)
    | i :: rest ->
      if n <= idx then tail (n + 1) rest
      else begin
        let reads =
          match i with Instr.Phi _ -> false | _ -> List.mem dst (Instr.uses i)
        in
        if reads then false
        else if Instr.def i = Some dst then true
        else tail (n + 1) rest
      end
  in
  tail 0 b.Block.instrs

(* ------------------------------------------------------------------ *)
(* Path evaluation counts per expression shape (A004).                  *)
(* Shapes expand operands through unique definitions to a bounded       *)
(* depth, naming parameters positionally so the form survives register  *)
(* renaming; any unresolvable operand poisons the shape ("?") and the   *)
(* shape is dropped rather than over-merged.                            *)

let shape_depth = 3

let shapes_of (r : Routine.t) (g : Dataflow.graph) =
  let cfg = r.Routine.cfg in
  let width = max 1 r.Routine.next_reg in
  let def_count = Array.make width 0 in
  let def_instr = Array.make width None in
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          match Instr.def i with
          | Some d when d >= 0 && d < width ->
            def_count.(d) <- def_count.(d) + 1;
            def_instr.(d) <- Some i
          | _ -> ())
        b.Block.instrs)
    cfg;
  let param_index = Array.make width (-1) in
  List.iteri
    (fun i p -> if p >= 0 && p < width && def_count.(p) = 0 then param_index.(p) <- i)
    r.Routine.params;
  let rec operand depth u =
    if u < 0 || u >= width then "?"
    else if param_index.(u) >= 0 then Printf.sprintf "p%d" param_index.(u)
    else if depth = 0 || def_count.(u) <> 1 then "?"
    else
      match def_instr.(u) with
      | Some (Instr.Const { value; _ }) -> Value.to_string value
      | Some (Instr.Copy { src; _ }) -> operand (depth - 1) src
      | Some (Instr.Unop { op; src; _ }) ->
        Printf.sprintf "%s(%s)" (Op.unop_name op) (operand (depth - 1) src)
      | Some (Instr.Binop { op; a; b; _ }) ->
        let sa = operand (depth - 1) a and sb = operand (depth - 1) b in
        let sa, sb = if Op.commutative op && sb < sa then (sb, sa) else (sa, sb) in
        Printf.sprintf "%s(%s,%s)" (Op.binop_name op) sa sb
      | _ -> "?"
  in
  let shape_of_instr i =
    match i with
    | Instr.Const { value; _ } -> Some (Value.to_string value)
    | Instr.Unop { op; src; _ } ->
      Some (Printf.sprintf "%s(%s)" (Op.unop_name op) (operand shape_depth src))
    | Instr.Binop { op; a; b; _ } ->
      let sa = operand shape_depth a and sb = operand shape_depth b in
      let sa, sb = if Op.commutative op && sb < sa then (sb, sa) else (sa, sb) in
      Some (Printf.sprintf "%s(%s,%s)" (Op.binop_name op) sa sb)
    | _ -> None
  in
  (* Per-shape, per-block evaluation counts over the reachable blocks. *)
  let counts : (string, int array) Hashtbl.t = Hashtbl.create 32 in
  let nblocks = Cfg.num_blocks cfg in
  Cfg.iter_blocks
    (fun b ->
      let id = b.Block.id in
      if Order.is_reachable g.Dataflow.order id then
        List.iter
          (fun i ->
            match shape_of_instr i with
            | Some s when not (String.contains s '?') ->
              let arr =
                match Hashtbl.find_opt counts s with
                | Some a -> a
                | None ->
                  let a = Array.make nblocks 0 in
                  Hashtbl.add counts s a;
                  a
              in
              arr.(id) <- arr.(id) + 1
            | _ -> ())
          b.Block.instrs)
    cfg;
  (* Longest acyclic path: drop retreating edges (RPO does not grow along
     them), leaving a DAG that reverse postorder topologically sorts. *)
  let rpo_number = Order.rpo_number g.Dataflow.order in
  let metric arr =
    let best = Array.make nblocks 0 in
    let result = ref 0 in
    Array.iter
      (fun j ->
        let inherit_ =
          Array.fold_left
            (fun acc i -> if rpo_number i < rpo_number j then max acc best.(i) else acc)
            0 g.Dataflow.preds.(j)
        in
        best.(j) <- arr.(j) + inherit_;
        result := max !result best.(j))
      g.Dataflow.rpo;
    !result
  in
  Hashtbl.fold (fun s arr acc -> (s, metric arr) :: acc) counts []

(* ------------------------------------------------------------------ *)
(* Value redundancy (A007): the AWZ partition on an SSA copy.           *)
(* SSA construction with copy folding leaves each block as its new phis *)
(* followed by its own instructions minus the copies, in order, so the  *)
(* two lists walked side by side map every SSA evaluation back to its   *)
(* (block, index). An evaluation is value-redundant when a congruent    *)
(* one dominates it; the nearest such is its holder.                    *)

let dominating_congruent (r : Routine.t) =
  let holders = Hashtbl.create 16 in
  let s = Routine.copy r in
  let reachable = Cfg.reachable s.Routine.cfg in
  (* Renaming skips unreachable blocks, whose definitions would keep
     their old names, parameters' included. *)
  Cfg.iter_blocks
    (fun b ->
      if not (Bitset.mem reachable b.Block.id) then b.Block.instrs <- [])
    s.Routine.cfg;
  (match Epre_ssa.Ssa.build s with
  | exception Epre_ssa.Ssa.Use_before_def _ ->
    (* Not strict: some path reads a register before any write, and the
       partition needs SSA. *)
    ()
  | { graph; dom } ->
    let part = Epre_gvn.Partition.build s in
    (* Class -> its evaluations so far, in reverse postorder, latest
       first: a dominator comes before what it dominates. *)
    let seen = Hashtbl.create 16 in
    let visit ((id, _) as site) = function
      | Instr.Unop { dst; _ } | Instr.Binop { dst; _ } ->
        let c = Epre_gvn.Partition.class_of part dst in
        let earlier = Option.value ~default:[] (Hashtbl.find_opt seen c) in
        (match
           List.find_opt (fun (b, _) -> Dom.dominates dom b id) earlier
         with
        | Some h -> Hashtbl.replace holders site h
        | None -> ());
        Hashtbl.replace seen c (site :: earlier)
      | _ -> ()
    in
    let rec walk id k orig ssa =
      match (orig, ssa) with
      | Instr.Copy _ :: orig, _ -> walk id (k + 1) orig ssa
      | _ :: orig, i :: ssa ->
        visit (id, k) i;
        walk id (k + 1) orig ssa
      | _ -> ()
    in
    let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
    Array.iter
      (fun id ->
        (* [Ssa.build] adds an entry block when the old one has
           predecessors; it has no original. *)
        if id < Cfg.num_blocks r.Routine.cfg then begin
          let orig = (Cfg.block r.Routine.cfg id).Block.instrs in
          let ssa = (Cfg.block s.Routine.cfg id).Block.instrs in
          let copies =
            List.length
              (List.filter (function Instr.Copy _ -> true | _ -> false) orig)
          in
          walk id 0 orig (drop (List.length ssa - List.length orig + copies) ssa)
        end)
      graph.Dataflow.rpo);
  holders

(* ------------------------------------------------------------------ *)
(* Core measurement of one routine.                                     *)

type core = {
  c_sites : site list;
  c_deletable : (int * int, unit) Hashtbl.t;
      (** (block, index) of sites one LCM round would delete *)
  c_holders : (int * int, int * int) Hashtbl.t;
      (** (block, index) -> its dominating congruent evaluation *)
  c_live : Liveness.t;
  c_pressure : Pressure.t;
  c_shapes : (string * int) list;
  c_spec : int;
}

let core_of (r : Routine.t) =
  let cfg = r.Routine.cfg in
  let fl = Expr_flow.build r in
  let g = fl.Expr_flow.graph in
  let order = g.Dataflow.order in
  let uni = fl.Expr_flow.uni in
  let avail = Expr_flow.availability fl in
  let pav = Expr_flow.partial_availability fl in
  let holders = dominating_congruent r in
  let must = must_use g r in
  let del = Expr_flow.lcm_delete fl in
  let deletable = Hashtbl.create 16 in
  let sites = ref [] in
  Cfg.iter_blocks
    (fun b ->
      let id = b.Block.id in
      if Order.is_reachable order id then begin
        (* Walk the block against the availability sets at the exact
           program point, applying each instruction's comp/kill. *)
        let cur_av = Bitset.copy avail.Dataflow.ins.(id) in
        let cur_pav = Bitset.copy pav.Dataflow.ins.(id) in
        (* The LCM deletion sweep covers evaluations before the first
           kill of their expression in a DELETE block. *)
        let killed = Bitset.create (max 1 fl.Expr_flow.width) in
        List.iteri
          (fun idx i ->
            (match (Expr_universe.key_of i, Instr.def i) with
            | Some _, Some dst ->
              (match Expr_universe.expr_of_name uni dst with
              | Some e
                when Bitset.mem del.(id) e.Expr_universe.index
                     && not (Bitset.mem killed e.Expr_universe.index) ->
                Hashtbl.replace deletable (id, idx) ()
              | _ -> ());
              let holder = Hashtbl.find_opt holders (id, idx) in
              let cls =
                match Expr_universe.expr_of_name uni dst with
                | Some e when Bitset.mem cur_av e.Expr_universe.index -> Full
                | Some e when Bitset.mem cur_pav e.Expr_universe.index -> Partial
                | _ -> if holder = None then Clean else Value
              in
              sites :=
                {
                  block = id;
                  index = idx;
                  dst;
                  text = Pp.instr_to_string i;
                  cls;
                  holder = (if cls = Value then holder else None);
                  speculative = speculative_at must b ~dst ~idx;
                }
                :: !sites
            | _ -> ());
            (* Transfer: the evaluation lands, then the kills. *)
            Option.iter
              (fun e ->
                Bitset.add cur_av e.Expr_universe.index;
                Bitset.add cur_pav e.Expr_universe.index)
              (Expr_universe.evaluated uni i);
            Expr_universe.iter_kills uni i (fun k ->
                Bitset.remove cur_av k;
                Bitset.remove cur_pav k;
                Bitset.add killed k))
          b.Block.instrs
      end)
    cfg;
  let sites =
    List.sort
      (fun (a : site) (b : site) ->
        compare (a.block, a.index) (b.block, b.index))
      !sites
  in
  let live = Liveness.compute g r in
  {
    c_sites = sites;
    c_deletable = deletable;
    c_holders = holders;
    c_live = live;
    c_pressure = Pressure.compute g live r;
    c_shapes = shapes_of r g;
    c_spec = List.length (List.filter (fun s -> s.speculative) sites);
  }

(* ------------------------------------------------------------------ *)
(* Findings                                                             *)

let site_finding rule (s : site) message =
  { rule; block = Some s.block; index = Some s.index; message }

let run ?(expect_pre = false) ?baseline (r : Routine.t) =
  let c = core_of r in
  let base = Option.map core_of baseline in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  (* A001/A002: redundancy residue — only meaningful after a PRE level. *)
  if expect_pre then
    List.iter
      (fun s ->
        match s.cls with
        | Full ->
          add
            (site_finding "A001" s
               (Printf.sprintf
                  "%s survives although the expression is available on every \
                   path to this point"
                  s.text))
        | Partial ->
          (* Partial availability alone over-approximates what code
             motion can remove (insertion must also be safe); only flag
             what one more LCM round would actually delete. *)
          if Hashtbl.mem c.c_deletable (s.block, s.index) then
            add
              (site_finding "A002" s
                 (Printf.sprintf
                    "%s survives although it is partially redundant and a \
                     safe lazy placement would delete it"
                    s.text))
        | Value | Clean -> ())
      c.c_sites;
  (* A003: speculative evaluations introduced (vs the baseline). *)
  (match base with
  | Some b when c.c_spec > b.c_spec ->
    let first =
      List.find_opt (fun s -> s.speculative) c.c_sites
    in
    let block = Option.map (fun (s : site) -> s.block) first in
    let index = Option.map (fun (s : site) -> s.index) first in
    add
      {
        rule = "A003";
        block;
        index;
        message =
          Printf.sprintf
            "code motion left %d speculative evaluation(s) whose result is \
             not needed on every path (baseline had %d) — an inserted \
             computation is not down-safe"
            c.c_spec b.c_spec;
      }
  | _ -> ());
  (* A004: a path's evaluation count of some shape grew. *)
  (match base with
  | Some b ->
    List.iter
      (fun (shape, n) ->
        let before =
          match List.assoc_opt shape b.c_shapes with Some m -> m | None -> 0
        in
        if n > before then
          add
            {
              rule = "A004";
              block = None;
              index = None;
              message =
                Printf.sprintf
                  "a path now evaluates %s %d time(s), up from %d — code \
                   motion lengthened an execution path"
                  shape n before;
            })
      c.c_shapes
  | None -> ());
  (* A005: peak pressure grew. *)
  (match base with
  | Some b
    when Pressure.max_pressure c.c_pressure
         > Pressure.max_pressure b.c_pressure ->
    add
      {
        rule = "A005";
        block = None;
        index = None;
        message =
          Printf.sprintf
            "peak register pressure rose from %d to %d simultaneously live \
             registers"
            (Pressure.max_pressure b.c_pressure)
            (Pressure.max_pressure c.c_pressure);
      }
  | _ -> ());
  (* A006: long-lived expression temporaries; unreachable blocks have
     empty live-ins. *)
  begin
    let live = c.c_live in
    let width = Liveness.nregs live in
    let span = Array.make (max 1 width) 0 in
    Cfg.iter_blocks
      (fun b ->
        Bitset.iter
          (fun reg -> span.(reg) <- span.(reg) + 1)
          (Liveness.live_in live b.Block.id))
      r.Routine.cfg;
    let warned = Hashtbl.create 7 in
    List.iter
      (fun s ->
        if
          s.dst < Array.length span
          && span.(s.dst) >= lifetime_threshold
          && not (Hashtbl.mem warned s.dst)
        then begin
          Hashtbl.add warned s.dst ();
          add
            (site_finding "A006" s
               (Printf.sprintf
                  "%s stays live across %d blocks — a long expression \
                   lifetime PRE placement could shorten"
                  s.text span.(s.dst)))
        end)
      c.c_sites
  end;
  (* A007: value-redundant evaluations. A partial site keeps its class,
     so the residual does not count it twice. *)
  List.iter
    (fun s ->
      match (s.cls, Hashtbl.find_opt c.c_holders (s.block, s.index)) with
      | (Value | Partial), Some (b, i) ->
        add
          (site_finding "A007" s
             (Printf.sprintf
                "%s recomputes the value B%d:%d computed, a congruent \
                 evaluation that dominates it"
                s.text b i))
      | _ -> ())
    c.c_sites;
  {
    findings = List.rev !findings;
    sites = c.c_sites;
    block_pressure = Pressure.per_block c.c_pressure;
    max_pressure = Pressure.max_pressure c.c_pressure;
    baseline_max_pressure =
      Option.map (fun b -> Pressure.max_pressure b.c_pressure) base;
    speculative_count = c.c_spec;
    baseline_speculative_count = Option.map (fun b -> b.c_spec) base;
  }

let residual report =
  List.length
    (List.filter (fun s -> s.cls = Full || s.cls = Partial) report.sites)
