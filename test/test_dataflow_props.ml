(** Property tests: the RPO-driven data-flow solver computes exactly the
    same fixpoint as a naive chaotic iteration, for random graphs and
    random gen/kill systems (widths up to 150, so sets span several
    words), in all four (direction x meet) combinations; the lazy code
    motion placement equals a straightforward reference fixpoint on
    generated programs; refreshing an [Expr_flow.t] after PRE's edits
    equals rebuilding it; and dominators, frontiers, postdominators,
    control dependence and liveness match their definitions on random
    graphs. *)

open Epre_util
open Epre_ir
open Epre_analysis
open QCheck2

let make_cfg nblocks edges =
  let cfg = Cfg.create () in
  for _ = 0 to nblocks - 1 do
    ignore (Cfg.add_block ~term:(Instr.Ret None) cfg)
  done;
  let succs = Array.make nblocks [] in
  List.iter
    (fun (a, b) -> if List.length succs.(a) < 2 then succs.(a) <- succs.(a) @ [ b ])
    edges;
  Array.iteri
    (fun i -> function
      | [] -> ()
      | [ s ] -> (Cfg.block cfg i).Block.term <- Instr.Jump s
      | s1 :: s2 :: _ ->
        (Cfg.block cfg i).Block.term <- Instr.Cbr { cond = 0; ifso = s1; ifnot = s2 })
    succs;
  Cfg.set_entry cfg 0;
  cfg

let gen_instance =
  Gen.(
    let* n = int_range 2 7 in
    let* edges = list_size (int_range 1 12) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
    let* width = int_range 1 150 in
    let* gens = list_size (return n) (list_size (int_range 0 12) (int_bound (width - 1))) in
    let* kills = list_size (return n) (list_size (int_range 0 12) (int_bound (width - 1))) in
    let* meet = oneofl [ Dataflow.Union; Dataflow.Inter ] in
    let* forward = bool in
    return (n, (0, 1 mod n) :: edges, width, gens, kills, meet, forward))

(* naive reference: chaotic iteration directly from the equations *)
let naive cfg ~width ~gen ~kill ~meet ~forward =
  let n = Cfg.num_blocks cfg in
  let order = Order.compute cfg in
  let reachable id = Order.is_reachable order id in
  let init () =
    Array.init n (fun id ->
        if not (reachable id) then Bitset.create width
        else match meet with
          | Dataflow.Union -> Bitset.create width
          | Dataflow.Inter -> Bitset.full width)
  in
  let ins = init () and outs = init () in
  let preds = Cfg.preds cfg in
  let boundary = Bitset.create width in
  let meet_list dst contributions =
    match contributions with
    | [] -> Bitset.assign ~dst boundary
    | first :: rest ->
      Bitset.assign ~dst first;
      List.iter
        (fun c ->
          match meet with
          | Dataflow.Union -> Bitset.union_into ~dst c
          | Dataflow.Inter -> Bitset.inter_into ~dst c)
        rest
  in
  let changed = ref true in
  while !changed do
    changed := false;
    (* visit blocks in an order unrelated to RPO: plain id order *)
    for id = 0 to n - 1 do
      if reachable id then begin
        let input, output = if forward then (ins.(id), outs.(id)) else (outs.(id), ins.(id)) in
        let contributions =
          if forward then
            if id = Cfg.entry cfg then []
            else List.filter_map (fun p -> if reachable p then Some outs.(p) else None) preds.(id)
          else List.map (fun s -> ins.(s)) (Cfg.succs cfg id)
        in
        let tmp = Bitset.create width in
        meet_list tmp contributions;
        if not (Bitset.equal tmp input) then begin
          Bitset.assign ~dst:input tmp;
          changed := true
        end;
        let t2 = Bitset.copy input in
        Bitset.diff_into ~dst:t2 (kill id);
        Bitset.union_into ~dst:t2 (gen id);
        if not (Bitset.equal t2 output) then begin
          Bitset.assign ~dst:output t2;
          changed := true
        end
      end
    done
  done;
  (ins, outs)

let solver_matches_naive =
  Helpers.qcheck_case ~count:300 "Dataflow" "solver = chaotic-iteration fixpoint"
    gen_instance
    (fun (n, edges, width, gens, kills, meet, forward) ->
      let cfg = make_cfg n edges in
      let mk lists =
        Array.of_list
          (List.map
             (fun l ->
               let s = Bitset.create width in
               List.iter (Bitset.add s) l;
               s)
             lists)
      in
      let gen = mk gens and kill = mk kills in
      let sys =
        { Dataflow.width; gen; kill; boundary = Bitset.create width; meet }
      in
      let g = Dataflow.graph cfg in
      let result =
        if forward then Dataflow.solve_forward g sys else Dataflow.solve_backward g sys
      in
      let nins, nouts =
        naive cfg ~width ~gen:(Array.get gen) ~kill:(Array.get kill) ~meet ~forward
      in
      let order = Order.compute cfg in
      let ok = ref true in
      for id = 0 to n - 1 do
        if Order.is_reachable order id then begin
          if not (Bitset.equal result.Dataflow.ins.(id) nins.(id)) then ok := false;
          if not (Bitset.equal result.Dataflow.outs.(id) nouts.(id)) then ok := false
        end
      done;
      !ok)

(* The LATER fixpoint in its direct form: every iteration recomputes
   EARLIEST, and with it LATER, for every edge. The reference for
   [Expr_flow.lcm_placement], which computes EARLIEST once per edge. *)
let reference_lcm_placement (t : Expr_flow.t) =
  let cfg = t.cfg in
  let width = t.width in
  let antloc = t.local.Expr_universe.antloc in
  let kill = t.local.Expr_universe.kill in
  let avail = Expr_flow.availability t in
  let ant = Expr_flow.anticipability t in
  let antin = ant.Dataflow.ins and antout = ant.Dataflow.outs in
  let avout = avail.Dataflow.outs in
  (* EARLIEST over a real edge (i, j). *)
  let earliest i j =
    let s = Bitset.copy antin.(j) in
    Bitset.diff_into ~dst:s avout.(i);
    let guard = Bitset.copy kill.(i) in
    let not_antout = Bitset.copy antout.(i) in
    (* kill(i) ∨ ¬antout(i): complement via full-universe diff *)
    let all = Bitset.full width in
    Bitset.diff_into ~dst:all not_antout;
    Bitset.union_into ~dst:guard all;
    Bitset.inter_into ~dst:s guard;
    s
  in
  let order = Order.compute cfg in
  let rpo = Order.reverse_postorder order in
  let preds = Cfg.preds cfg in
  let entry = Cfg.entry cfg in
  let nblocks = Cfg.num_blocks cfg in
  let laterin = Array.init nblocks (fun _ -> Bitset.full width) in
  (* LATER over a real edge, given current laterin. *)
  let later i j =
    let s = earliest i j in
    let flow = Bitset.copy laterin.(i) in
    Bitset.diff_into ~dst:flow antloc.(i);
    Bitset.union_into ~dst:s flow;
    s
  in
  (* Virtual entry edge: LATER(V, entry) = ANTIN(entry). *)
  let later_virtual = Bitset.copy antin.(entry) in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun j ->
        let contributions =
          (if j = entry then [ later_virtual ] else [])
          @ List.filter_map
              (fun i ->
                if Order.is_reachable order i then Some (later i j) else None)
              preds.(j)
        in
        let new_in =
          match contributions with
          | [] -> Bitset.create width
          | first :: rest ->
            let acc = Bitset.copy first in
            List.iter (fun s -> Bitset.inter_into ~dst:acc s) rest;
            acc
        in
        if not (Bitset.equal new_in laterin.(j)) then begin
          Bitset.assign ~dst:laterin.(j) new_in;
          changed := true
        end)
      rpo
  done;
  { Expr_flow.laterin; later; later_virtual }

(* Does [lcm_placement] agree with the reference on [r] as it stands? *)
let placement_matches_reference (r : Routine.t) =
  let fl = Expr_flow.build r in
  let got = Expr_flow.lcm_placement fl and want = reference_lcm_placement fl in
  let cfg = r.Routine.cfg in
  let order = Order.compute cfg in
  Bitset.equal got.Expr_flow.later_virtual want.Expr_flow.later_virtual
  && Array.for_all2 Bitset.equal got.Expr_flow.laterin want.Expr_flow.laterin
  && Cfg.fold_blocks
       (fun ok b ->
         let i = b.Block.id in
         ok
         && ((not (Order.is_reachable order i))
            || List.for_all
                 (fun j -> Bitset.equal (got.Expr_flow.later i j) (want.Expr_flow.later i j))
                 (Block.succs b)))
       true cfg

let placement_matches_reference_fixpoint =
  Helpers.qcheck_case ~count:40 "Expr_flow" "lcm_placement = recompute-per-iteration fixpoint"
    Gen.(int_bound 100_000)
    (fun seed ->
      let prog = Epre_frontend.Frontend.compile_string (Epre_fuzz.Gen.source seed) in
      List.for_all
        (fun (r : Routine.t) ->
          ignore (Epre_opt.Naming.run r);
          ignore (Epre_ssa.Critical_edges.split_all r);
          let before = placement_matches_reference r in
          (* Once more after PRE has moved code, on the graph as it left it. *)
          ignore (Epre_pre.Pre.run r);
          ignore (Epre_ssa.Critical_edges.split_all r);
          before && placement_matches_reference r)
        (Program.routines prog))

(* [Expr_flow.refresh] returns its argument while no body changed; after
   PRE has edited the bodies it equals a fresh [make] over the same
   universe and graph view: local sets, repeat flags and availability. *)
let refresh_matches_rebuild =
  Helpers.qcheck_case ~count:40 "Expr_flow" "refresh = rebuild after body edits"
    Gen.(int_bound 100_000)
    (fun seed ->
      let prog = Epre_frontend.Frontend.compile_string (Epre_fuzz.Gen.source seed) in
      List.for_all
        (fun (r : Routine.t) ->
          ignore (Epre_opt.Naming.run r);
          ignore (Epre_ssa.Critical_edges.split_all r);
          let fl = Expr_flow.build r in
          let unchanged = Expr_flow.refresh fl r == fl in
          ignore (Epre_pre.Pre.run r);
          let got = Expr_flow.refresh fl r
          and want = Expr_flow.make ~uni:fl.Expr_flow.uni ~graph:fl.Expr_flow.graph r in
          let sets f = Array.for_all2 Bitset.equal (f got) (f want) in
          let local f (t : Expr_flow.t) = f t.Expr_flow.local in
          let avail f (t : Expr_flow.t) = f (Expr_flow.availability t) in
          unchanged
          && sets (local (fun l -> l.Expr_universe.antloc))
          && sets (local (fun l -> l.Expr_universe.comp))
          && sets (local (fun l -> l.Expr_universe.kill))
          && got.Expr_flow.local.Expr_universe.repeats = want.Expr_flow.local.Expr_universe.repeats
          && sets (avail (fun a -> a.Dataflow.ins))
          && sets (avail (fun a -> a.Dataflow.outs)))
        (Program.routines prog))

let suite =
  [ solver_matches_naive; placement_matches_reference_fixpoint; refresh_matches_rebuild ]

(* ------------------------------------------------------------------ *)
(* Dominators, postdominators and liveness against their definitions,  *)
(* on [make_cfg]'s random graphs. Their entries can have predecessors,  *)
(* blocks with no listed successor return, and a block can be           *)
(* unreachable or unable to reach a return.                             *)

let gen_graph =
  Gen.(
    let* n = int_range 2 8 in
    let* edges = list_size (int_range 1 14) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
    return (n, (0, 1 mod n) :: edges))

(* The blocks reached from [roots] along [next] without entering [avoid]. *)
let reach n ~next ?(avoid = -1) roots =
  let seen = Array.make n false in
  let rec go id =
    if id <> avoid && not seen.(id) then begin
      seen.(id) <- true;
      List.iter go (next id)
    end
  in
  List.iter go roots;
  seen

let exits cfg =
  List.map (fun b -> b.Block.id) (Cfg.exit_blocks cfg)

let sorted l = List.sort_uniq compare l

let all_blocks n = List.init n Fun.id

(* [a] dominates reachable [b] iff no entry-to-[b] path avoids [a]; the
   frontier of [a] is every [b] with a reachable predecessor that [a]
   dominates, unless [a] strictly dominates [b]. The property leaves the
   entry out of the frontiers: with no virtual edge into it, the
   frontier walk takes the entry for a join only when two of its own
   predecessors are reachable. *)
let dominators_match_definition =
  Helpers.qcheck_case ~count:300 "Dom" "dominance and frontiers = path definitions" gen_graph
    (fun (n, edges) ->
      let cfg = make_cfg n edges in
      let dom = Dom.compute (Dataflow.graph cfg) in
      let entry = Cfg.entry cfg in
      let from_entry avoid = reach n ~next:(Cfg.succs cfg) ~avoid [ entry ] in
      let reachable = from_entry (-1) in
      let dominates = Array.init n (fun a -> Array.map not (from_entry a)) in
      let preds = Cfg.preds cfg in
      let frontier a =
        List.filter
          (fun b ->
            reachable.(b) && b <> entry
            && List.exists (fun p -> reachable.(p) && dominates.(a).(p)) preds.(b)
            && not (a <> b && dominates.(a).(b)))
          (all_blocks n)
      in
      List.for_all
        (fun a ->
          List.for_all
            (fun b -> (not reachable.(b)) || Dom.dominates dom a b = dominates.(a).(b))
            (all_blocks n)
          && ((not reachable.(a))
             || List.filter (( <> ) entry) (sorted (Dom.frontier dom a)) = frontier a))
        (all_blocks n))

(* [a] postdominates [b], which reaches a return, iff no [b]-to-return
   path avoids [a]; [b] is control-dependent on every block [c] with a
   successor that [a] postdominates, unless [a] strictly postdominates
   [c]. A block that reaches no return has no postdominator. *)
let postdominators_match_definition =
  Helpers.qcheck_case ~count:300 "Postdom" "postdominance and control dependence = path definitions"
    gen_graph
    (fun (n, edges) ->
      let cfg = make_cfg n edges in
      let pdom = Postdom.compute cfg in
      let preds = Cfg.preds cfg in
      let to_exit avoid = reach n ~next:(Array.get preds) ~avoid (exits cfg) in
      let exits_reached = to_exit (-1) in
      let postdominates = Array.init n (fun a -> Array.map not (to_exit a)) in
      let control_deps b =
        List.filter
          (fun c ->
            exits_reached.(c)
            && List.exists
                 (fun s -> exits_reached.(s) && postdominates.(b).(s))
                 (Cfg.succs cfg c)
            && not (b <> c && postdominates.(b).(c)))
          (all_blocks n)
      in
      List.for_all
        (fun b ->
          (exits_reached.(b) = (Postdom.ipostdom pdom b >= 0))
          && List.for_all
               (fun a ->
                 Postdom.postdominates pdom a b = (exits_reached.(b) && postdominates.(a).(b)))
               (all_blocks n)
          && sorted (Postdom.control_deps pdom b)
             = if exits_reached.(b) then control_deps b else [])
        (all_blocks n))

(* Random bodies on a random graph: adds over [width] registers, and at
   some blocks a phi naming every predecessor. *)
let gen_live_instance =
  Gen.(
    let* n, edges = gen_graph in
    let* width = int_range 1 40 in
    let reg = int_bound (width - 1) in
    let* bodies = list_size (return n) (list_size (int_range 0 5) (triple reg reg reg)) in
    let* phis = list_size (return n) (opt (pair reg (list_size (return n) reg))) in
    let* rets = list_size (return n) (opt reg) in
    return (n, edges, width, bodies, phis, rets))

let live_routine (n, edges, width, bodies, phis, rets) =
  let cfg = make_cfg n edges in
  let preds = Cfg.preds cfg in
  List.iteri
    (fun id body ->
      let b = Cfg.block cfg id in
      let adds =
        List.map (fun (dst, a, b) -> Instr.Binop { op = Op.Add; dst; a; b }) body
      in
      let phi =
        match List.nth phis id with
        | Some (dst, srcs) when preds.(id) <> [] ->
          [ Instr.Phi { dst; args = List.map (fun p -> (p, List.nth srcs p)) preds.(id) } ]
        | _ -> []
      in
      b.Block.instrs <- phi @ adds;
      match b.Block.term with
      | Instr.Ret _ -> b.Block.term <- Instr.Ret (List.nth rets id)
      | _ -> ())
    bodies;
  Routine.create ~name:"live" ~params:[] ~cfg ~next_reg:width

(* Liveness by chaotic iteration in id order, each block walked backward
   from its live-out: the live-ins of its successors plus the arguments
   their phis take along its edges. A phi defines its destination and
   uses nothing in its own block. *)
let naive_liveness (r : Routine.t) =
  let cfg = r.Routine.cfg and width = r.Routine.next_reg in
  let n = Cfg.num_blocks cfg in
  let reachable = reach n ~next:(Cfg.succs cfg) [ Cfg.entry cfg ] in
  let live_in = Array.init n (fun _ -> Bitset.create width) in
  let live_out = Array.init n (fun _ -> Bitset.create width) in
  let update dst s =
    if Bitset.equal dst s then false
    else begin
      Bitset.assign ~dst s;
      true
    end
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for id = 0 to n - 1 do
      if reachable.(id) then begin
        let b = Cfg.block cfg id in
        let out = Bitset.create width in
        List.iter
          (fun s ->
            Bitset.union_into ~dst:out live_in.(s);
            List.iter
              (function
                | Instr.Phi { args; _ } ->
                  List.iter (fun (p, src) -> if p = id then Bitset.add out src) args
                | _ -> ())
              (Cfg.block cfg s).Block.instrs)
          (Cfg.succs cfg id);
        let live = Bitset.copy out in
        List.iter (Bitset.add live) (Instr.term_uses b.Block.term);
        List.iter
          (fun i ->
            match i with
            | Instr.Phi { dst; _ } -> Bitset.remove live dst
            | _ ->
              Option.iter (Bitset.remove live) (Instr.def i);
              List.iter (Bitset.add live) (Instr.uses i))
          (List.rev b.Block.instrs);
        let c1 = update live_out.(id) out in
        let c2 = update live_in.(id) live in
        if c1 || c2 then changed := true
      end
    done
  done;
  (live_in, live_out)

let liveness_matches_naive =
  Helpers.qcheck_case ~count:300 "Liveness" "solver = chaotic-iteration fixpoint" gen_live_instance
    (fun inst ->
      let r = live_routine inst in
      let live = Liveness.compute (Dataflow.graph r.Routine.cfg) r in
      let want_in, want_out = naive_liveness r in
      List.for_all
        (fun id ->
          Bitset.equal (Liveness.live_in live id) want_in.(id)
          && Bitset.equal (Liveness.live_out live id) want_out.(id))
        (all_blocks (Cfg.num_blocks r.Routine.cfg)))

let suite =
  suite
  @ [ dominators_match_definition; postdominators_match_definition; liveness_matches_naive ]
