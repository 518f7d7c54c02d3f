(** Pruned SSA construction and destruction.

    Construction follows Cytron et al.: phi placement at iterated dominance
    frontiers of each register's definition blocks, *pruned* by liveness so
    only registers live into the join block receive phis, then renaming by a
    preorder walk of the dominator tree. Following Section 3.1 of the
    paper, the renaming step optionally folds copies away: a [Copy] gives
    its destination the current name of its source and disappears,
    "effectively folding them into phi-nodes". This frees the
    optimizer from the programmer's choice of variable names (Section 2.2).

    Destruction isolates each phi with a fresh temporary: [d <- phi(ri@pi)]
    becomes a copy [ti <- ri] at the end of each (critical-edge-split)
    predecessor and [d <- ti] at the block top. The temporaries make the
    inserted copy groups interference-free regardless of what renaming GVN
    performed, and the Chaitin-style coalescer later removes the copies that
    do not matter. *)

open Epre_ir
open Epre_analysis

exception Use_before_def of { routine : string; reg : Instr.reg }

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

type build_config = { fold_copies : bool }

type built = { graph : Dataflow.graph; dom : Dom.t }

(* needs_phi.(block) = registers to phi at that block, descending. Only
   non-local registers can be live into a block, so only they are
   tried. A register's phis go at the iterated dominance frontier of its
   defining blocks, pruned to the blocks it is live into; the set closes
   the same way whatever order the worklist takes. [placed] and [queued]
   hold the register a block was last placed or queued for. *)
let phi_placement (r : Routine.t) dom live =
  let cfg = r.Routine.cfg in
  let nblocks = Cfg.num_blocks cfg in
  let entry = Cfg.entry cfg in
  let needs_phi = Array.make nblocks [] in
  let placed = Array.make nblocks (-1) and queued = Array.make nblocks (-1) in
  let work = Array.make nblocks 0 and top = ref 0 in
  let enqueue v b =
    if queued.(b) <> v then begin
      queued.(b) <- v;
      work.(!top) <- b;
      incr top
    end
  in
  Array.iteri
    (fun k v ->
      let defs = Liveness.def_blocks live k in
      let defs =
        if List.mem v r.Routine.params && not (List.mem entry defs) then entry :: defs
        else defs
      in
      match defs with
      | [] | [ _ ] ->
        (* At most one defining block: at block exits a single definition
           reaches every use of a strict program, so no phi is needed. *)
        ()
      | defs ->
        List.iter (enqueue v) defs;
        while !top > 0 do
          decr top;
          List.iter
            (fun d ->
              if placed.(d) <> v && Liveness.live_into live d k then begin
                placed.(d) <- v;
                needs_phi.(d) <- v :: needs_phi.(d);
                enqueue v d
              end)
            (Dom.frontier dom work.(!top))
        done)
    (Liveness.nonlocal live);
  needs_phi

(* The phis [build] puts at one block, before they become instructions:
   destination [first + j] merges register [vars.(j)], and [args.(j).(k)]
   is its argument along the edge from [preds.(k)]. *)
type phis = { first : int; vars : int array; preds : int array; args : int array array }

let no_phis = { first = 0; vars = [||]; preds = [||]; args = [||] }

let build ?(config = { fold_copies = true }) (r : Routine.t) =
  if r.Routine.in_ssa then invalid_arg "Ssa.build: routine already in SSA form";
  let cfg = r.Routine.cfg in
  Cfg.give_entry_no_preds cfg;
  let g = Dataflow.graph cfg in
  let dom = Dom.compute g in
  let live = Liveness.compute g r in
  let needs_phi = phi_placement r dom live in
  let preds = Cfg.preds cfg in
  let orig_width = r.Routine.next_reg in
  (* Phi destinations are fresh registers, in block order and ascending
     merged register within a block; arguments start as the merged
     register and are filled during renaming. *)
  let phis =
    Array.mapi
      (fun bid vs ->
        if vs = [] then no_phis
        else begin
          let vars = Array.of_list (List.rev vs) in
          let first = r.Routine.next_reg in
          r.Routine.next_reg <- first + Array.length vars;
          let preds = Array.of_list preds.(bid) in
          { first; vars; preds; args = Array.map (fun v -> Array.make (Array.length preds) v) vars }
        end)
      needs_phi
  in
  (* Renaming: the current name of each original register ([-1] for
     none yet), and an undo log of (register, previous name) pairs that
     leaving a dominator subtree rolls back. *)
  let current = Array.make orig_width (-1) in
  let log = ref (Array.make 64 0) and logged = ref 0 in
  let top v =
    if v >= orig_width then v
    else
      let n = current.(v) in
      if n < 0 then raise (Use_before_def { routine = r.Routine.name; reg = v }) else n
  in
  let push v n =
    if !logged + 2 > Array.length !log then begin
      let bigger = Array.make (2 * Array.length !log) 0 in
      Array.blit !log 0 bigger 0 !logged;
      log := bigger
    end;
    !log.(!logged) <- v;
    !log.(!logged + 1) <- current.(v);
    logged := !logged + 2;
    current.(v) <- n
  in
  let fresh_def d =
    if d < orig_width then begin
      let n = Routine.fresh_reg r in
      push d n;
      n
    end
    else d
  in
  (* In order: a definition's fresh name must follow its operands'. *)
  let rec rewrite = function
    | [] -> []
    | i :: rest -> (
      match i with
      | Instr.Copy { dst; src } when config.fold_copies && dst < orig_width ->
        (* Fold the copy: dst's current name becomes src's current name. *)
        push dst (top src);
        rewrite rest
      | _ ->
        let i =
          match i with
          | Instr.Const { dst; value } -> Instr.Const { dst = fresh_def dst; value }
          | Instr.Copy { dst; src } ->
            let src = top src in
            Instr.Copy { dst = fresh_def dst; src }
          | Instr.Unop { op; dst; src } ->
            let src = top src in
            Instr.Unop { op; dst = fresh_def dst; src }
          | Instr.Binop { op; dst; a; b } ->
            let a = top a in
            let b = top b in
            Instr.Binop { op; dst = fresh_def dst; a; b }
          | _ -> (
            let i = Instr.map_uses top i in
            match Instr.def i with
            | Some d when d < orig_width -> Instr.map_def (fun _ -> fresh_def d) i
            | _ -> i)
        in
        i :: rewrite rest)
  in
  List.iter (fun p -> current.(p) <- p) r.Routine.params;
  let rec rename bid =
    let b = Cfg.block cfg bid in
    let mark = !logged in
    (* A phi's destination becomes the current name of the register it
       merges. *)
    let here = phis.(bid) in
    Array.iteri (fun j v -> push v (here.first + j)) here.vars;
    b.Block.instrs <- rewrite b.Block.instrs;
    b.Block.term <- Instr.map_term_uses top b.Block.term;
    (* Fill our slot in the successors' phis. *)
    List.iter
      (fun s ->
        let there = phis.(s) in
        if there.vars <> [||] then begin
          let k = ref 0 in
          while there.preds.(!k) <> bid do incr k done;
          Array.iteri (fun j v -> there.args.(j).(!k) <- top v) there.vars
        end)
      (Block.succs b);
    List.iter rename (Dom.children dom bid);
    while !logged > mark do
      logged := !logged - 2;
      current.(!log.(!logged)) <- !log.(!logged + 1)
    done
  in
  rename (Cfg.entry cfg);
  Array.iteri
    (fun bid { first; vars; preds; args } ->
      if vars <> [||] then begin
        let b = Cfg.block cfg bid in
        b.Block.instrs <-
          List.init (Array.length vars) (fun j ->
              Instr.Phi
                { dst = first + j; args = List.mapi (fun k p -> (p, args.(j).(k))) (Array.to_list preds) })
          @ b.Block.instrs
      end)
    phis;
  r.Routine.in_ssa <- true;
  { graph = g; dom }

(* ------------------------------------------------------------------ *)
(* Destruction                                                         *)

let destroy (r : Routine.t) =
  if not r.Routine.in_ssa then invalid_arg "Ssa.destroy: routine not in SSA form";
  ignore (Critical_edges.split_all r);
  let cfg = r.Routine.cfg in
  let fresh () = Routine.fresh_reg r in
  let copies seq = List.map (fun (dst, src) -> Instr.Copy { dst; src }) seq in
  Cfg.iter_blocks
    (fun b ->
      let phis = Block.phis b in
      if phis <> [] then begin
        let preds =
          match phis with
          | Instr.Phi { args; _ } :: _ -> List.map fst args
          | _ -> assert false
        in
        let pairs_for p =
          List.map
            (function
              | Instr.Phi { dst; args } -> (dst, List.assoc p args)
              | _ -> assert false)
            phis
        in
        (match preds with
        | [ p ] ->
          (* A single predecessor: the copies may sit at the top of the
             block itself, which is safe even if [p] has several
             successors. *)
          b.Block.instrs <-
            copies (Parallel_copy.sequentialize ~fresh (pairs_for p)) @ Block.non_phis b
        | preds ->
          (* Several predecessors: critical-edge splitting guarantees each
             has this block as its only successor, so copies at their ends
             execute exactly on the right edge. *)
          List.iter
            (fun p ->
              assert (List.length (Cfg.succs cfg p) = 1);
              let pb = Cfg.block cfg p in
              pb.Block.instrs <-
                pb.Block.instrs @ copies (Parallel_copy.sequentialize ~fresh (pairs_for p)))
            preds;
          b.Block.instrs <- Block.non_phis b)
      end)
    cfg;
  r.Routine.in_ssa <- false;
  r
