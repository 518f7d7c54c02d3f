(** Tests for [Epre_ir]: operator algebra, instruction structure, CFG
    surgery, routine validation. *)

open Epre_ir

let value_gen =
  QCheck2.Gen.(
    oneof [ map (fun i -> Value.I i) (int_range (-1000) 1000);
            map (fun f -> Value.F f) (float_bound_inclusive 100.0) ])

let int_value_gen = QCheck2.Gen.(map (fun i -> Value.I i) (int_range (-1000) 1000))

(* ------------------------------------------------------------------ *)
(* Operator algebra: the properties [Op] advertises must agree with
   [Op.eval_binop], because reassociation and peephole both rely on them. *)

let arith_ops_int = [ Op.Add; Op.Sub; Op.Mul; Op.And; Op.Or; Op.Xor; Op.Min; Op.Max ]

let commutative_law =
  Helpers.qcheck_case ~count:300 "Op" "commutative ops commute under eval"
    QCheck2.Gen.(pair int_value_gen int_value_gen)
    (fun (a, b) ->
      List.for_all
        (fun op ->
          (not (Op.commutative op))
          || Value.equal (Op.eval_binop op a b) (Op.eval_binop op b a))
        arith_ops_int)

let associative_law =
  Helpers.qcheck_case ~count:300 "Op" "associative int ops associate under eval"
    QCheck2.Gen.(triple int_value_gen int_value_gen int_value_gen)
    (fun (a, b, c) ->
      List.for_all
        (fun op ->
          (not (Op.associative op))
          || Value.equal
               (Op.eval_binop op (Op.eval_binop op a b) c)
               (Op.eval_binop op a (Op.eval_binop op b c)))
        arith_ops_int)

let sub_as_add_neg_law =
  Helpers.qcheck_case ~count:300 "Op" "x - y = x + (-y)"
    QCheck2.Gen.(pair int_value_gen int_value_gen)
    (fun (a, b) ->
      Value.equal (Op.eval_binop Op.Sub a b)
        (Op.eval_binop Op.Add a (Op.eval_unop Op.Neg b)))

let distribution_law =
  Helpers.qcheck_case ~count:300 "Op" "w*(x+y) = w*x + w*y over ints"
    QCheck2.Gen.(triple int_value_gen int_value_gen int_value_gen)
    (fun (w, x, y) ->
      Value.equal
        (Op.eval_binop Op.Mul w (Op.eval_binop Op.Add x y))
        (Op.eval_binop Op.Add (Op.eval_binop Op.Mul w x) (Op.eval_binop Op.Mul w y)))

let test_division_by_zero () =
  Alcotest.check_raises "div" Op.Division_by_zero (fun () ->
      ignore (Op.eval_binop Op.Div (Value.I 1) (Value.I 0)));
  Alcotest.check_raises "rem" Op.Division_by_zero (fun () ->
      ignore (Op.eval_binop Op.Rem (Value.I 1) (Value.I 0)))

let test_type_errors () =
  Alcotest.check_raises "int op on float" (Value.Type_error "expected int value")
    (fun () -> ignore (Op.eval_binop Op.Add (Value.F 1.0) (Value.I 2)))

let test_compare_results_are_int () =
  List.iter
    (fun op ->
      match Op.eval_binop op (Value.F 1.0) (Value.F 2.0) with
      | Value.I (0 | 1) -> ()
      | v -> Alcotest.failf "%s returned %s" (Op.binop_name op) (Value.to_string v))
    [ Op.FEq; Op.FNe; Op.FLt; Op.FLe; Op.FGt; Op.FGe ]

(* ------------------------------------------------------------------ *)
(* Instruction def/use structure *)

let test_defs_uses () =
  let check i ~def ~uses =
    Alcotest.(check (option int)) "def" def (Instr.def i);
    Alcotest.(check (list int)) "uses" uses (Instr.uses i)
  in
  check (Instr.Const { dst = 3; value = Value.I 1 }) ~def:(Some 3) ~uses:[];
  check (Instr.Copy { dst = 1; src = 2 }) ~def:(Some 1) ~uses:[ 2 ];
  check (Instr.Binop { op = Op.Add; dst = 5; a = 1; b = 2 }) ~def:(Some 5) ~uses:[ 1; 2 ];
  check (Instr.Store { addr = 4; src = 7 }) ~def:None ~uses:[ 4; 7 ];
  check (Instr.Call { dst = None; callee = "f"; args = [ 1; 2; 3 ] }) ~def:None
    ~uses:[ 1; 2; 3 ];
  check (Instr.Phi { dst = 9; args = [ (0, 1); (1, 2) ] }) ~def:(Some 9) ~uses:[ 1; 2 ]

let test_map_uses_preserves_def () =
  let i = Instr.Binop { op = Op.Add; dst = 5; a = 1; b = 2 } in
  let i' = Instr.map_uses (fun r -> r + 10) i in
  Alcotest.(check (option int)) "def unchanged" (Some 5) (Instr.def i');
  Alcotest.(check (list int)) "uses shifted" [ 11; 12 ] (Instr.uses i')

let test_term_succs_dedup () =
  Alcotest.(check (list int)) "cbr same arms" [ 4 ]
    (Instr.term_succs (Instr.Cbr { cond = 0; ifso = 4; ifnot = 4 }));
  Alcotest.(check (list int)) "cbr" [ 4; 5 ]
    (Instr.term_succs (Instr.Cbr { cond = 0; ifso = 4; ifnot = 5 }));
  Alcotest.(check (list int)) "ret" [] (Instr.term_succs (Instr.Ret None))

(* ------------------------------------------------------------------ *)
(* CFG surgery *)

let diamond () =
  (* B0 -> B1/B2 -> B3 *)
  let cfg = Cfg.create () in
  let b0 = Cfg.add_block ~term:(Instr.Ret None) cfg in
  Cfg.set_entry cfg b0.Block.id;
  let b3 = Cfg.add_block ~term:(Instr.Ret None) cfg in
  let b1 = Cfg.add_block ~term:(Instr.Jump b3.Block.id) cfg in
  let b2 = Cfg.add_block ~term:(Instr.Jump b3.Block.id) cfg in
  b0.Block.term <- Instr.Cbr { cond = 0; ifso = b1.Block.id; ifnot = b2.Block.id };
  (cfg, b0, b1, b2, b3)

let test_preds () =
  let cfg, b0, b1, b2, b3 = diamond () in
  let preds = Cfg.preds cfg in
  Alcotest.(check (list int)) "entry preds" [] preds.(b0.Block.id);
  Alcotest.(check (list int)) "join preds"
    (List.sort compare [ b1.Block.id; b2.Block.id ])
    (List.sort compare preds.(b3.Block.id))

let test_split_edge_updates_phis () =
  let cfg, b0, b1, _b2, b3 = diamond () in
  b3.Block.instrs <- [ Instr.Phi { dst = 9; args = [ (b1.Block.id, 1); (2 + 1, 2) ] } ];
  ignore b0;
  let nb = Cfg.split_edge cfg ~from_:b1.Block.id ~to_:b3.Block.id in
  (match b3.Block.instrs with
  | [ Instr.Phi { args; _ } ] ->
    Alcotest.(check bool) "phi retargeted" true (List.mem_assoc nb.Block.id args);
    Alcotest.(check bool) "old pred gone" false (List.mem_assoc b1.Block.id args)
  | _ -> Alcotest.fail "phi expected");
  Alcotest.(check (list int)) "b1 now jumps to the new block" [ nb.Block.id ]
    (Cfg.succs cfg b1.Block.id);
  Alcotest.(check (list int)) "new block jumps to join" [ b3.Block.id ]
    (Cfg.succs cfg nb.Block.id)

let test_reachable () =
  let cfg, _b0, _b1, _b2, b3 = diamond () in
  let dead = Cfg.add_block ~term:(Instr.Jump b3.Block.id) cfg in
  let reach = Cfg.reachable cfg in
  Alcotest.(check bool) "join reachable" true (Epre_util.Bitset.mem reach b3.Block.id);
  Alcotest.(check bool) "orphan unreachable" false
    (Epre_util.Bitset.mem reach dead.Block.id)

let test_remove_entry_rejected () =
  let cfg, b0, _, _, _ = diamond () in
  Alcotest.check_raises "cannot remove entry"
    (Invalid_argument "Cfg.remove_block: cannot remove entry") (fun () ->
      Cfg.remove_block cfg b0.Block.id)

(* ------------------------------------------------------------------ *)
(* Routine validation *)

let test_validate_catches_bad_target () =
  let b = Builder.start ~name:"bad" ~nparams:0 in
  Builder.set_term b (Instr.Jump 42);
  Alcotest.check_raises "dangling jump"
    (Routine.Ill_formed "bad: block 0 jumps to missing block 42") (fun () ->
      ignore (Builder.finish b))

let test_validate_catches_out_of_range_reg () =
  let b = Builder.start ~name:"bad" ~nparams:0 in
  Builder.emit b (Instr.Copy { dst = 0; src = 99 });
  Builder.ret b None;
  Alcotest.check_raises "unknown register"
    (Routine.Ill_formed "bad: block 0, instr 0: use of r99 out of range") (fun () ->
      ignore (Builder.finish b))

let test_validate_phi_pred_mismatch () =
  let b = Builder.start ~name:"bad" ~nparams:0 in
  let r = Builder.fresh_reg b in
  Builder.emit b (Instr.Phi { dst = r; args = [ (7, r) ] });
  Builder.ret b None;
  Alcotest.check_raises "phi preds"
    (Routine.Ill_formed "bad: block 0, instr 0: phi preds 7 do not match CFG preds ")
    (fun () ->
      ignore (Builder.finish b))

let test_routine_copy_independent () =
  let b = Builder.start ~name:"r" ~nparams:1 in
  let t = Builder.int b 7 in
  Builder.ret b (Some t);
  let r = Builder.finish b in
  let r' = Routine.copy r in
  (Cfg.block r'.Routine.cfg 0).Block.instrs <- [];
  Alcotest.(check int) "original untouched" 1
    (List.length (Cfg.block r.Routine.cfg 0).Block.instrs)

let test_op_count () =
  let b = Builder.start ~name:"r" ~nparams:0 in
  let x = Builder.int b 1 in
  let y = Builder.int b 2 in
  let z = Builder.binop b Op.Add x y in
  Builder.ret b (Some z);
  let r = Builder.finish b in
  (* 3 instructions + 1 terminator *)
  Alcotest.(check int) "op_count" 4 (Routine.op_count r);
  Alcotest.(check int) "instr_count" 3 (Routine.instr_count r)

(* A diamond, [f(c) = c ? 1.0 : 0.0], to edit one piece at a time. *)
let diamond () =
  let b = Builder.start ~name:"r" ~nparams:1 in
  let yes = Builder.new_block b and no = Builder.new_block b in
  Builder.cbr b ~cond:0 ~ifso:yes ~ifnot:no;
  Builder.switch b yes;
  Builder.ret b (Some (Builder.float b 1.0));
  Builder.switch b no;
  Builder.ret b (Some (Builder.float b 0.0));
  Builder.finish b

let test_routine_equal () =
  let r = diamond () in
  Alcotest.(check bool) "a copy equals its original" true (Routine.equal r (Routine.copy r));
  Alcotest.(check bool) "rebuilt lists still equal" true
    (let c = Routine.copy r in
     Cfg.iter_blocks (fun b -> b.Block.instrs <- List.map Fun.id b.Block.instrs) c.Routine.cfg;
     Routine.equal r c);
  List.iter
    (fun (what, edit) ->
      let c = Routine.copy r in
      edit c;
      Alcotest.(check bool) what false (Routine.equal r c))
    [ ("instruction edit",
       fun c -> (Cfg.block c.Routine.cfg 1).Block.instrs <-
                  [ Instr.Const { dst = 1; value = Value.F 2.0 } ]);
      ("0.0 becomes -0.0",
       fun c -> (Cfg.block c.Routine.cfg 2).Block.instrs <-
                  [ Instr.Const { dst = 2; value = Value.F (-0.0) } ]);
      ("terminator edit",
       fun c -> (Cfg.block c.Routine.cfg 0).Block.term <-
                  Instr.Cbr { cond = 0; ifso = 2; ifnot = 1 });
      ("next_reg", fun c -> ignore (Routine.fresh_reg c));
      ("in_ssa", fun c -> c.Routine.in_ssa <- true);
      ("removed block", fun c -> Cfg.remove_block c.Routine.cfg 2);
      ("entry change", fun c -> Cfg.set_entry c.Routine.cfg 1) ]

let suite =
  [
    commutative_law;
    associative_law;
    sub_as_add_neg_law;
    distribution_law;
    Alcotest.test_case "op: division by zero raises" `Quick test_division_by_zero;
    Alcotest.test_case "op: type errors raise" `Quick test_type_errors;
    Alcotest.test_case "op: comparisons return 0/1" `Quick test_compare_results_are_int;
    Alcotest.test_case "instr: defs and uses" `Quick test_defs_uses;
    Alcotest.test_case "instr: map_uses" `Quick test_map_uses_preserves_def;
    Alcotest.test_case "instr: successor dedup" `Quick test_term_succs_dedup;
    Alcotest.test_case "cfg: predecessor lists" `Quick test_preds;
    Alcotest.test_case "cfg: split_edge updates phis" `Quick test_split_edge_updates_phis;
    Alcotest.test_case "cfg: reachability" `Quick test_reachable;
    Alcotest.test_case "cfg: entry removal rejected" `Quick test_remove_entry_rejected;
    Alcotest.test_case "validate: dangling jump" `Quick test_validate_catches_bad_target;
    Alcotest.test_case "validate: register range" `Quick test_validate_catches_out_of_range_reg;
    Alcotest.test_case "validate: phi pred mismatch" `Quick test_validate_phi_pred_mismatch;
    Alcotest.test_case "routine: copy independence" `Quick test_routine_copy_independent;
    Alcotest.test_case "routine: op counts" `Quick test_op_count;
    Alcotest.test_case "routine: structural equality" `Quick test_routine_equal;
  ]
