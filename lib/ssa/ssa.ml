(** Pruned SSA construction and destruction.

    Construction follows Cytron et al.: phi placement at iterated dominance
    frontiers of each register's definition blocks, *pruned* by liveness so
    only registers live into the join block receive phis, then renaming by a
    preorder walk of the dominator tree. Following Section 3.1 of the
    paper, the renaming step optionally folds copies away: a [Copy] pushes
    the current name of its source onto the destination's stack and
    disappears, "effectively folding them into phi-nodes". This frees the
    optimizer from the programmer's choice of variable names (Section 2.2).

    Destruction isolates each phi with a fresh temporary: [d <- phi(ri@pi)]
    becomes a copy [ti <- ri] at the end of each (critical-edge-split)
    predecessor and [d <- ti] at the block top. The temporaries make the
    inserted copy groups interference-free regardless of what renaming GVN
    performed, and the Chaitin-style coalescer later removes the copies that
    do not matter. *)

open Epre_util
open Epre_ir
open Epre_analysis

exception Use_before_def of { routine : string; reg : Instr.reg }

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let phi_placement (r : Routine.t) dom live =
  let cfg = r.Routine.cfg in
  let nblocks = Cfg.num_blocks cfg in
  let width = r.Routine.next_reg in
  (* def_blocks.(v) = blocks containing a definition of v *)
  let def_blocks = Array.make width [] in
  List.iter (fun p -> def_blocks.(p) <- [ Cfg.entry cfg ]) r.Routine.params;
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          Option.iter (fun d -> def_blocks.(d) <- b.Block.id :: def_blocks.(d)) (Instr.def i))
        b.Block.instrs)
    cfg;
  (* needs_phi.(block) = registers to phi at that block *)
  let needs_phi = Array.make nblocks [] in
  for v = 0 to width - 1 do
    match List.sort_uniq compare def_blocks.(v) with
    | [] | [ _ ] ->
      (* At most one defining block: at block exits a single definition
         reaches every use of a strict program, so no phi is needed. *)
      ()
    | defs ->
      let placed = Bitset.create nblocks in
      let in_work = Bitset.create nblocks in
      let work = Queue.create () in
      List.iter
        (fun b ->
          if not (Bitset.mem in_work b) then begin
            Bitset.add in_work b;
            Queue.add b work
          end)
        defs;
      while not (Queue.is_empty work) do
        let b = Queue.take work in
        List.iter
          (fun d ->
            if (not (Bitset.mem placed d)) && Bitset.mem (Liveness.live_in live d) v then begin
              Bitset.add placed d;
              needs_phi.(d) <- v :: needs_phi.(d);
              if not (Bitset.mem in_work d) then begin
                Bitset.add in_work d;
                Queue.add d work
              end
            end)
          (Dom.frontier dom b)
      done
  done;
  needs_phi

type build_config = { fold_copies : bool }

let default_build_config = { fold_copies = true }

let build ?(config = default_build_config) (r : Routine.t) =
  if r.Routine.in_ssa then invalid_arg "Ssa.build: routine already in SSA form";
  let cfg = r.Routine.cfg in
  let g = Dataflow.graph cfg in
  let dom = Dom.compute g in
  let live = Liveness.compute g r in
  let needs_phi = phi_placement r dom live in
  let preds = Cfg.preds cfg in
  let orig_width = r.Routine.next_reg in
  (* Insert placeholder phis; arguments are filled during renaming.  Each phi
     remembers which original register it merges via [phi_origin]. *)
  let phi_origin = Hashtbl.create 16 in
  Array.iteri
    (fun bid vs ->
      if vs <> [] then begin
        let b = Cfg.block cfg bid in
        let phis =
          List.map
            (fun v ->
              let dst = Routine.fresh_reg r in
              Hashtbl.replace phi_origin (bid, dst) v;
              Instr.Phi { dst; args = List.map (fun p -> (p, v)) preds.(bid) })
            (List.rev vs)
        in
        b.Block.instrs <- phis @ b.Block.instrs
      end)
    needs_phi;
  (* Renaming: stacks of current names per original register. *)
  let stacks = Array.make orig_width [] in
  let top v =
    if v >= orig_width then v
    else
      match stacks.(v) with
      | n :: _ -> n
      | [] -> raise (Use_before_def { routine = r.Routine.name; reg = v })
  in
  List.iter (fun p -> stacks.(p) <- p :: stacks.(p)) r.Routine.params;
  let rec rename bid =
    let b = Cfg.block cfg bid in
    let pushed = ref [] in
    let push v n =
      stacks.(v) <- n :: stacks.(v);
      pushed := v :: !pushed
    in
    let rewrite acc i =
      match i with
      | Instr.Phi { dst; args } ->
        (* dst is already a fresh name; record it as the current name of the
           register this phi merges. *)
        let v = Hashtbl.find phi_origin (bid, dst) in
        push v dst;
        Instr.Phi { dst; args } :: acc
      | Instr.Copy { dst; src } when config.fold_copies && dst < orig_width ->
        (* Fold the copy: dst's current name becomes src's current name. *)
        let n = top src in
        push dst n;
        acc
      | _ ->
        let i = Instr.map_uses top i in
        (match Instr.def i with
        | Some d when d < orig_width ->
          let n = Routine.fresh_reg r in
          push d n;
          Instr.map_def (fun _ -> n) i :: acc
        | _ -> i :: acc)
    in
    b.Block.instrs <- List.rev (List.fold_left rewrite [] b.Block.instrs);
    b.Block.term <- Instr.map_term_uses top b.Block.term;
    (* Fill our slot in successors' phis. *)
    List.iter
      (fun s ->
        let sb = Cfg.block cfg s in
        sb.Block.instrs <-
          List.map
            (function
              | Instr.Phi { dst; args } ->
                let args =
                  List.map
                    (fun (p, v) ->
                      if p = bid && v < orig_width && Hashtbl.mem phi_origin (s, dst) then
                        (p, top v)
                      else (p, v))
                    args
                in
                Instr.Phi { dst; args }
              | i -> i)
            sb.Block.instrs)
      (Block.succs b);
    List.iter rename (Dom.children dom bid);
    List.iter (fun v -> stacks.(v) <- List.tl stacks.(v)) !pushed
  in
  rename (Cfg.entry cfg);
  r.Routine.in_ssa <- true;
  r

(* ------------------------------------------------------------------ *)
(* Destruction                                                         *)

let destroy (r : Routine.t) =
  if not r.Routine.in_ssa then invalid_arg "Ssa.destroy: routine not in SSA form";
  ignore (Critical_edges.split_all r);
  let cfg = r.Routine.cfg in
  let fresh () = Routine.fresh_reg r in
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
          let seq = Parallel_copy.sequentialize ~fresh (pairs_for p) in
          b.Block.instrs <-
            List.map (fun (dst, src) -> Instr.Copy { dst; src }) seq @ Block.non_phis b
        | preds ->
          (* Several predecessors: critical-edge splitting guarantees each
             has this block as its only successor, so copies at their ends
             execute exactly on the right edge. *)
          List.iter
            (fun p ->
              assert (List.length (Cfg.succs cfg p) = 1);
              let seq = Parallel_copy.sequentialize ~fresh (pairs_for p) in
              List.iter
                (fun (dst, src) -> Block.append (Cfg.block cfg p) (Instr.Copy { dst; src }))
                seq)
            preds;
          b.Block.instrs <- Block.non_phis b)
      end)
    cfg;
  r.Routine.in_ssa <- false;
  r
