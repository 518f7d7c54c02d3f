(** Property tests for reassociation's canonical-form claim on
    generator-produced programs (semantics preservation lives in
    [Test_random_programs]; tree-level normalization laws in
    [Test_expr_tree_props]). After [Reassociate.run], every reassociable
    expression chain in the emitted three-address code must be

    - {b left-associated}: the lowering folds each rank-sorted n-ary
      node left to right, so an intermediate of an associative chain is
      consumed as the {e left} operand of the next operation — a
      single-use same-operator temporary in the right slot would mean a
      right-nested chain survived;
    - {b rank-sorted with constants first}: constants rank 0 and every
      anchor ranks ≥ 1, so a chain that mixes a constant with non-constant
      operands must lower the constant as its first leaf — never as the
      right operand against a non-constant left;
    - {b stable} under re-running: the pass's one intentional cost is
      the code growth of forward propagation (Table 2), and on its own
      output there is nothing left to propagate — a second run must not
      grow the operation count, and the form must stay canonical. (An
      exact fixpoint is not promised: the SSA round trip may split edges
      and place phi copies differently, occasionally letting a rerun
      shave an operation.) *)

open Epre_ir
open QCheck2
module Reassociate = Epre_reassoc.Reassociate
module Expr_tree = Epre_reassoc.Expr_tree

let gen_seed = Gen.int_range 0 1_000_000_000

let compile seed =
  Epre_frontend.Frontend.compile_string (Epre_fuzz.Gen.source seed)

let reassociate ~config prog =
  List.iter
    (fun r -> ignore (Reassociate.run ~config r))
    (Program.routines prog);
  prog

(* Single-definition and use-count tables over a routine's instructions
   (terminator uses included; a register defined twice maps to [None]). *)
let tables (r : Routine.t) =
  let defs : (Instr.reg, Instr.t option) Hashtbl.t = Hashtbl.create 64 in
  let uses : (Instr.reg, int) Hashtbl.t = Hashtbl.create 64 in
  let count u =
    Hashtbl.replace uses u
      (1 + Option.value ~default:0 (Hashtbl.find_opt uses u))
  in
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          (match Instr.def i with
          | Some d ->
            Hashtbl.replace defs d
              (if Hashtbl.mem defs d then None else Some i)
          | None -> ());
          List.iter count (Instr.uses i))
        b.Block.instrs;
      List.iter count (Instr.term_uses b.Block.term))
    r.Routine.cfg;
  let single_def reg =
    match Hashtbl.find_opt defs reg with Some (Some i) -> Some i | _ -> None
  in
  let use_count reg = Option.value ~default:0 (Hashtbl.find_opt uses reg) in
  (single_def, use_count)

(* Scan a reassociated routine for canonical-form violations; returns
   the first offending instruction's rendering, [None] when clean.

   A chain is an associative operation plus the single-use same-operator
   intermediates feeding its left slot; its leaves, read left to right,
   are the rank-sorted operand order the lowering emitted. Rank 0 is the
   only rank observable after the pass (registers whose value is a pure
   function of constants — [Rank] gives constants 0 and propagates
   through unary/copy/binary), so the sortedness check is: rank-0
   leaves form a prefix of every chain. *)
let canonical_violation ~config (r : Routine.t) =
  let single_def, use_count = tables r in
  (* Transitive rank-0 test, memoized; cycles (loop-carried single defs)
     settle to false via the visiting mark. Copies are deliberately not
     followed: the lowering emits none, so a copy is phi glue — its
     source ranked by its defining block at sort time even when the
     value traces to a constant. *)
  let memo : (Instr.reg, bool) Hashtbl.t = Hashtbl.create 64 in
  let rec rank0 reg =
    match Hashtbl.find_opt memo reg with
    | Some v -> v
    | None ->
      Hashtbl.replace memo reg false;
      let v =
        match single_def reg with
        | Some (Instr.Const _) -> true
        | Some (Instr.Unop { src; _ }) -> rank0 src
        | Some (Instr.Binop { a; b; _ }) -> rank0 a && rank0 b
        | _ -> false
      in
      Hashtbl.replace memo reg v;
      v
  in
  (* Leaves of the chain rooted at a same-[op] binop, left to right,
     expanding only the left slot (the right slot must be a leaf — that
     is the left-association check). *)
  let rec chain_leaves op (a, b) =
    let left =
      match single_def a with
      | Some (Instr.Binop { op = op'; a = a'; b = b'; _ })
        when op' = op && use_count a = 1 ->
        chain_leaves op (a', b')
      | _ -> [ a ]
    in
    left @ [ b ]
  in
  let rank0_prefix leaves =
    let rec go seen_high = function
      | [] -> true
      | l :: rest ->
        if rank0 l then (not seen_high) && go seen_high rest
        else go true rest
    in
    go false leaves
  in
  let violation = ref None in
  let offend i why =
    if !violation = None then
      violation := Some (Printf.sprintf "%s (%s)" (Pp.instr_to_string i) why)
  in
  Cfg.iter_blocks
    (fun blk ->
      List.iter
        (fun i ->
          match i with
          | Instr.Binop { op; a; b; _ } when Expr_tree.reassociable config op
            ->
            (match single_def b with
            | Some (Instr.Binop { op = op'; _ })
              when op' = op && use_count b = 1 ->
              offend i "right-nested associative chain"
            | _ -> ());
            if not (rank0_prefix (chain_leaves op (a, b))) then
              offend i "rank-0 operand sorted after a higher-ranked one"
          | _ -> ())
        blk.Block.instrs)
    r.Routine.cfg;
  !violation

let canonical_after_run ~config label =
  Helpers.qcheck_case ~count:100 "reassociation" label gen_seed (fun seed ->
      let prog = reassociate ~config (compile seed) in
      List.for_all
        (fun r ->
          match canonical_violation ~config r with
          | None -> true
          | Some what ->
            Test.fail_reportf "%s: not canonical: %s" r.Routine.name what)
        (Program.routines prog))

let stable_under_rerun ~config label =
  Helpers.qcheck_case ~count:60 "reassociation" label gen_seed (fun seed ->
      let prog = reassociate ~config (compile seed) in
      List.for_all
        (fun r ->
          let again = Reassociate.run ~config r in
          if again.Reassociate.after_ops > again.Reassociate.before_ops then
            Test.fail_reportf
              "%s: second run grew the operation count %d -> %d"
              r.Routine.name again.Reassociate.before_ops
              again.Reassociate.after_ops
          else
            match canonical_violation ~config r with
            | None -> true
            | Some what ->
              Test.fail_reportf "%s: second run broke canonical form: %s"
                r.Routine.name what)
        (Program.routines prog))

let cfg_plain = Epre.Pipeline.reassoc_config ~distribute:false

(* Generator seeds whose [main] has phis that merge one value with
   themselves. The first run must propagate through them: anchoring there
   leaves the second run work to do (647 -> 673, 390 -> 392, 578 -> 581
   and 271 -> 272 operations), since it no longer sees those phis. *)
let test_rerun_regression_seeds () =
  List.iter
    (fun seed ->
      let prog = reassociate ~config:cfg_plain (compile seed) in
      List.iter
        (fun (r : Routine.t) ->
          let again = Reassociate.run ~config:cfg_plain r in
          if again.Reassociate.after_ops > again.Reassociate.before_ops then
            Alcotest.failf "seed %d %s: second run grew the operation count %d -> %d"
              seed r.Routine.name again.Reassociate.before_ops
              again.Reassociate.after_ops)
        (Program.routines prog))
    [ 126003780; 59401782; 106003180; 244331623 ]

let cfg_dist = Epre.Pipeline.reassoc_config ~distribute:true

let suite =
  [
    canonical_after_run ~config:cfg_plain
      "chains left-associated and rank-sorted";
    canonical_after_run ~config:cfg_dist
      "canonical under distribution too";
    stable_under_rerun ~config:cfg_plain
      "second run does not grow the code";
    Alcotest.test_case "second run: former growth seeds" `Quick
      test_rerun_regression_seeds;
  ]
