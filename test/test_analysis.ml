(** Tests for [Epre_analysis]: orders, dominators, frontiers, natural
    loops, liveness, and the generic data-flow solver. *)

open Epre_ir
open Epre_analysis
open Epre_util

(* A reusable little graph builder: [make edges] produces a CFG whose block
   0 is the entry; blocks with no listed successors return. *)
let make_cfg nblocks edges =
  let cfg = Cfg.create () in
  for _ = 0 to nblocks - 1 do
    ignore (Cfg.add_block ~term:(Instr.Ret None) cfg)
  done;
  let succs = Array.make nblocks [] in
  List.iter (fun (a, b) -> succs.(a) <- succs.(a) @ [ b ]) edges;
  Array.iteri
    (fun i -> function
      | [] -> ()
      | [ s ] -> (Cfg.block cfg i).Block.term <- Instr.Jump s
      | [ s1; s2 ] ->
        (Cfg.block cfg i).Block.term <- Instr.Cbr { cond = 0; ifso = s1; ifnot = s2 }
      | _ -> invalid_arg "make_cfg: at most two successors")
    succs;
  Cfg.set_entry cfg 0;
  cfg

(* The classic example CFG used in dominator papers:
     0 -> 1 -> 2 -> 3 -> 4
          1 -> 5 -> 6 -> 3
               5 -> 4 ... keep it simpler: a diamond with a loop. *)
let diamond_loop () =
  (* 0 -> 1, 2 ; 1 -> 3 ; 2 -> 3 ; 3 -> 4, 1 ; 4 exit *)
  make_cfg 5 [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4); (3, 1) ]

(* ------------------------------------------------------------------ *)
(* Order *)

let test_rpo_entry_first () =
  let cfg = diamond_loop () in
  let order = Order.compute cfg in
  let rpo = Order.reverse_postorder order in
  Alcotest.(check int) "entry first" 0 rpo.(0);
  Alcotest.(check int) "all reachable blocks present" 5 (Array.length rpo);
  (* rpo numbers are consistent with positions *)
  Array.iteri
    (fun i id -> Alcotest.(check int) "rpo_number" i (Order.rpo_number order id))
    rpo

let test_unreachable_excluded () =
  let cfg = make_cfg 4 [ (0, 1); (2, 3) ] in
  let order = Order.compute cfg in
  Alcotest.(check bool) "2 unreachable" false (Order.is_reachable order 2);
  Alcotest.(check bool) "3 unreachable" false (Order.is_reachable order 3);
  Alcotest.(check int) "two reachable" 2 (Array.length (Order.postorder order))

(* ------------------------------------------------------------------ *)
(* Dominators *)

let test_dominators_diamond_loop () =
  let cfg = diamond_loop () in
  let dom = Dom.compute (Dataflow.graph cfg) in
  Alcotest.(check int) "idom 1" 0 (Dom.idom dom 1);
  Alcotest.(check int) "idom 2" 0 (Dom.idom dom 2);
  Alcotest.(check int) "idom 3 (join)" 0 (Dom.idom dom 3);
  Alcotest.(check int) "idom 4" 3 (Dom.idom dom 4);
  Alcotest.(check bool) "0 dominates all" true
    (List.for_all (fun b -> Dom.dominates dom 0 b) [ 0; 1; 2; 3; 4 ]);
  Alcotest.(check bool) "3 dominates 4" true (Dom.dominates dom 3 4);
  Alcotest.(check bool) "1 does not dominate 3" false (Dom.dominates dom 1 3)

let test_dominance_frontier () =
  let cfg = diamond_loop () in
  let dom = Dom.compute (Dataflow.graph cfg) in
  (* 1 and 2 meet at 3; the retreating edge 3 -> 1 makes 1 a join, so 1 is
     in DF(3). Neither branch strictly dominates the join. *)
  Alcotest.(check (list int)) "DF(1)" [ 3 ] (Dom.frontier dom 1);
  Alcotest.(check (list int)) "DF(2)" [ 3 ] (Dom.frontier dom 2);
  Alcotest.(check bool) "DF(3) contains 1" true (List.mem 1 (Dom.frontier dom 3));
  Alcotest.(check (list int)) "DF(0) empty" [] (Dom.frontier dom 0)

let test_linear_chain_dominators () =
  let cfg = make_cfg 4 [ (0, 1); (1, 2); (2, 3) ] in
  let dom = Dom.compute (Dataflow.graph cfg) in
  Alcotest.(check int) "idom 3" 2 (Dom.idom dom 3);
  Alcotest.(check (list int)) "children of 1" [ 2 ] (Dom.children dom 1);
  let visited = ref [] in
  Dom.iter_tree dom ~entry:0 (fun id -> visited := id :: !visited);
  Alcotest.(check (list int)) "preorder walk" [ 0; 1; 2; 3 ] (List.rev !visited)

(* Property: on random CFGs, idom(b) dominates b, and dominance is
   consistent with an exhaustive path check on small graphs. *)
let random_cfg_gen =
  QCheck2.Gen.(
    let* n = int_range 2 8 in
    let* edges =
      list_size (int_range 1 16) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    in
    (* Ensure entry has at least one successor and self-loops on entry are
       avoided; duplicate edges collapse in make_cfg's two-successor cap, so
       filter to at most 2 successors per node. *)
    let by_src = Hashtbl.create 8 in
    let edges =
      List.filter
        (fun (a, b) ->
          ignore b;
          let c = Option.value ~default:0 (Hashtbl.find_opt by_src a) in
          if c >= 2 then false
          else begin
            Hashtbl.replace by_src a (c + 1);
            true
          end)
        ((0, 1 mod n) :: edges)
    in
    return (n, edges))

(* Exhaustive dominance: a dominates b iff every entry->b path hits a. *)
let path_dominates cfg a b =
  let n = Cfg.num_blocks cfg in
  if a = b then true
  else begin
    (* DFS from entry avoiding a; if b is reachable, a does not dominate. *)
    let seen = Array.make n false in
    let rec go id =
      if (not seen.(id)) && id <> a then begin
        seen.(id) <- true;
        List.iter go (Cfg.succs cfg id)
      end
    in
    go (Cfg.entry cfg);
    not seen.(b)
  end

let dominators_match_paths =
  Helpers.qcheck_case ~count:200 "Dom" "CHK dominators match path definition"
    random_cfg_gen
    (fun (n, edges) ->
      let cfg = make_cfg n edges in
      let dom = Dom.compute (Dataflow.graph cfg) in
      let order = Order.compute cfg in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if Order.is_reachable order a && Order.is_reachable order b then
            if Dom.dominates dom a b <> path_dominates cfg a b then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Loops *)

let test_natural_loop () =
  (* 0 -> 1; 1 -> 2, 3; 2 -> 1 — a genuine back edge (1 dominates 2). *)
  let cfg = make_cfg 4 [ (0, 1); (1, 2); (1, 3); (2, 1) ] in
  let loops = Loops.compute (Dataflow.graph cfg) in
  match Loops.loops loops with
  | [ l ] ->
    Alcotest.(check int) "header" 1 l.Loops.header;
    Alcotest.(check (list int)) "body" [ 1; 2 ] (List.sort compare l.Loops.body);
    Alcotest.(check int) "depth of body" 1 (Loops.depth loops 2);
    Alcotest.(check int) "depth outside" 0 (Loops.depth loops 3)
  | ls -> Alcotest.failf "expected one loop, got %d" (List.length ls)

let test_retreating_edge_is_not_a_loop () =
  (* diamond_loop's 3 -> 1 edge is retreating but 1 does not dominate 3, so
     no natural loop exists. *)
  let cfg = diamond_loop () in
  let loops = Loops.compute (Dataflow.graph cfg) in
  Alcotest.(check int) "no natural loops" 0 (List.length (Loops.loops loops))

let test_nested_loops_depth () =
  (* 0 -> 1; 1 -> 2; 2 -> 2 (self), 2 -> 1 (outer back edge), 1 -> 3 *)
  let cfg = make_cfg 4 [ (0, 1); (1, 2); (1, 3); (2, 2); (2, 1) ] in
  let loops = Loops.compute (Dataflow.graph cfg) in
  Alcotest.(check int) "inner depth" 2 (Loops.depth loops 2);
  Alcotest.(check int) "outer depth" 1 (Loops.depth loops 1);
  Alcotest.(check int) "outside" 0 (Loops.depth loops 3)

(* ------------------------------------------------------------------ *)
(* Liveness *)

let test_liveness_straightline () =
  let b = Builder.start ~name:"l" ~nparams:2 in
  let t = Builder.binop b Op.Add 0 1 in
  Builder.ret b (Some t);
  let r = Builder.finish b in
  let live = Liveness.compute (Dataflow.graph r.Routine.cfg) r in
  let live_in = Liveness.live_in live 0 in
  Alcotest.(check bool) "param 0 live-in" true (Bitset.mem live_in 0);
  Alcotest.(check bool) "param 1 live-in" true (Bitset.mem live_in 1);
  Alcotest.(check bool) "temp not live-in" false (Bitset.mem live_in t)

let test_liveness_across_blocks () =
  let b = Builder.start ~name:"l" ~nparams:1 in
  let t = Builder.int b 42 in
  let b2 = Builder.new_block b in
  Builder.jump b b2;
  Builder.switch b b2;
  let u = Builder.binop b Op.Add t 0 in
  Builder.ret b (Some u);
  let r = Builder.finish b in
  let live = Liveness.compute (Dataflow.graph r.Routine.cfg) r in
  Alcotest.(check bool) "t live-out of entry" true
    (Bitset.mem (Liveness.live_out live 0) t);
  Alcotest.(check bool) "t live-in of b2" true (Bitset.mem (Liveness.live_in live b2) t)

let test_liveness_phi_args_at_pred () =
  (* entry -> b1 / b2 -> join with a phi: each phi argument is live out of
     its own predecessor only. *)
  let b = Builder.start ~name:"l" ~nparams:0 in
  let b1 = Builder.new_block b in
  let b2 = Builder.new_block b in
  let join = Builder.new_block b in
  let c = Builder.int b 1 in
  Builder.cbr b ~cond:c ~ifso:b1 ~ifnot:b2;
  Builder.switch b b1;
  let x1 = Builder.int b 10 in
  Builder.jump b join;
  Builder.switch b b2;
  let x2 = Builder.int b 20 in
  Builder.jump b join;
  Builder.switch b join;
  let d = Builder.fresh_reg b in
  Builder.emit b (Instr.Phi { dst = d; args = [ (b1, x1); (b2, x2) ] });
  Builder.ret b (Some d);
  let r = Builder.finish b in
  let live = Liveness.compute (Dataflow.graph r.Routine.cfg) r in
  Alcotest.(check bool) "x1 live-out of b1" true (Bitset.mem (Liveness.live_out live b1) x1);
  Alcotest.(check bool) "x2 not live-out of b1" false
    (Bitset.mem (Liveness.live_out live b1) x2);
  Alcotest.(check bool) "x2 live-out of b2" true (Bitset.mem (Liveness.live_out live b2) x2);
  Alcotest.(check bool) "phi dst not live-in of join" false
    (Bitset.mem (Liveness.live_in live join) d)

(* ------------------------------------------------------------------ *)
(* Data-flow solver *)

let test_forward_union_reaching () =
  (* A two-block chain: gen in block 0 reaches block 1. *)
  let cfg = make_cfg 2 [ (0, 1) ] in
  let gen0 = Bitset.create 4 in
  Bitset.add gen0 0;
  let gen1 = Bitset.create 4 in
  let empty = Bitset.create 4 in
  let sys =
    { Dataflow.width = 4;
      gen = [| gen0; gen1 |];
      kill = [| empty; empty |];
      boundary = Bitset.create 4;
      meet = Dataflow.Union }
  in
  let r = Dataflow.solve_forward (Dataflow.graph cfg) sys in
  Alcotest.(check bool) "fact flows in" true (Bitset.mem r.Dataflow.ins.(1) 0)

let test_forward_inter_kills () =
  (* diamond: fact generated in entry; killed on one branch; intersection
     at the join must drop it. *)
  let cfg = make_cfg 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let width = 1 in
  let full1 = Bitset.full width in
  let empty = Bitset.create width in
  let sys =
    { Dataflow.width;
      gen = [| full1; empty; empty; empty |];
      kill = [| empty; full1; empty; empty |];
      boundary = Bitset.create width;
      meet = Dataflow.Inter }
  in
  let r = Dataflow.solve_forward (Dataflow.graph cfg) sys in
  Alcotest.(check bool) "available out of 2" true (Bitset.mem r.Dataflow.outs.(2) 0);
  Alcotest.(check bool) "killed out of 1" false (Bitset.mem r.Dataflow.outs.(1) 0);
  Alcotest.(check bool) "join loses the fact" false (Bitset.mem r.Dataflow.ins.(3) 0)

let test_backward_inter_anticipation () =
  (* diamond where both branches generate: anticipated at entry's exit. *)
  let cfg = make_cfg 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let width = 1 in
  let full1 = Bitset.full width in
  let empty = Bitset.create width in
  let sys =
    { Dataflow.width;
      gen = [| empty; full1; full1; empty |];
      kill = Array.make 4 empty;
      boundary = Bitset.create width;
      meet = Dataflow.Inter }
  in
  let r = Dataflow.solve_backward (Dataflow.graph cfg) sys in
  Alcotest.(check bool) "anticipated at entry exit" true
    (Bitset.mem r.Dataflow.outs.(0) 0);
  Alcotest.(check bool) "not anticipated at exit block" false
    (Bitset.mem r.Dataflow.outs.(3) 0)

let test_loop_avail_fixpoint () =
  (* fact generated before a loop and transparent inside: available
     throughout the loop despite the back edge. *)
  let cfg = diamond_loop () in
  let width = 1 in
  let full1 = Bitset.full width in
  let empty = Bitset.create width in
  let sys =
    { Dataflow.width;
      gen = Array.init (Cfg.num_blocks cfg) (fun id -> if id = 0 then full1 else empty);
      kill = Array.make (Cfg.num_blocks cfg) empty;
      boundary = Bitset.create width;
      meet = Dataflow.Inter }
  in
  let r = Dataflow.solve_forward (Dataflow.graph cfg) sys in
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "available in %d" b)
        true
        (Bitset.mem r.Dataflow.ins.(b) 0))
    [ 1; 2; 3; 4 ]

let suite =
  [
    Alcotest.test_case "order: rpo puts entry first" `Quick test_rpo_entry_first;
    Alcotest.test_case "order: unreachable blocks excluded" `Quick test_unreachable_excluded;
    Alcotest.test_case "dom: diamond with loop" `Quick test_dominators_diamond_loop;
    Alcotest.test_case "dom: dominance frontiers" `Quick test_dominance_frontier;
    Alcotest.test_case "dom: linear chain + tree walk" `Quick test_linear_chain_dominators;
    dominators_match_paths;
    Alcotest.test_case "loops: natural loop discovery" `Quick test_natural_loop;
    Alcotest.test_case "loops: retreating edge is not a loop" `Quick test_retreating_edge_is_not_a_loop;
    Alcotest.test_case "loops: nesting depth" `Quick test_nested_loops_depth;
    Alcotest.test_case "liveness: straight line" `Quick test_liveness_straightline;
    Alcotest.test_case "liveness: across blocks" `Quick test_liveness_across_blocks;
    Alcotest.test_case "liveness: phi args at predecessors" `Quick test_liveness_phi_args_at_pred;
    Alcotest.test_case "dataflow: forward union" `Quick test_forward_union_reaching;
    Alcotest.test_case "dataflow: forward intersection kills" `Quick test_forward_inter_kills;
    Alcotest.test_case "dataflow: backward anticipation" `Quick test_backward_inter_anticipation;
    Alcotest.test_case "dataflow: loop fixpoint" `Quick test_loop_avail_fixpoint;
  ]
