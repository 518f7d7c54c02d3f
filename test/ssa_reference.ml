(* Reference implementations for the exactness tests in [Test_ssa_exact]:
   pruned SSA construction with liveness solved over every register,
   renaming through tuple-keyed tables, destruction that splits critical
   edges from an edge list and appends copy by copy, the table-based
   parallel-copy sequentializer, and AWZ refinement that regroups every
   class on every sweep. They are the straightforward versions of
   [Ssa.build], [Ssa.destroy] (with [Critical_edges.split_all]),
   [Parallel_copy.sequentialize] and [Partition.build], kept here so the
   lean ones can be checked against them: the same phis, names, copies
   and congruence classes. *)

open Epre_util
open Epre_ir
open Epre_analysis

(* Liveness over the whole register universe, one full-width set per
   block and role. *)
let live_in (g : Dataflow.graph) (r : Routine.t) =
  let cfg = r.Routine.cfg in
  let n = Cfg.num_blocks cfg in
  let width = r.Routine.next_reg in
  let upexposed = Array.init n (fun _ -> Bitset.create width) in
  let defs = Array.init n (fun _ -> Bitset.create width) in
  let phi_in = Array.init n (fun _ -> Bitset.create width) in
  let phi_defs = Array.init n (fun _ -> Bitset.create width) in
  Cfg.iter_blocks
    (fun b ->
      let id = b.Block.id in
      List.iter
        (fun i ->
          match i with
          | Instr.Phi { dst; args } ->
            Bitset.add defs.(id) dst;
            Bitset.add phi_defs.(id) dst;
            List.iter (fun (p, src) -> if Cfg.mem cfg p then Bitset.add phi_in.(p) src) args
          | _ ->
            List.iter
              (fun u -> if not (Bitset.mem defs.(id) u) then Bitset.add upexposed.(id) u)
              (Instr.uses i);
            Option.iter (fun d -> Bitset.add defs.(id) d) (Instr.def i))
        b.Block.instrs;
      List.iter
        (fun u -> if not (Bitset.mem defs.(id) u) then Bitset.add upexposed.(id) u)
        (Instr.term_uses b.Block.term))
    cfg;
  let live_in = Array.init n (fun _ -> Bitset.create width) in
  let live_out = Array.init n (fun _ -> Bitset.create width) in
  let contrib = Bitset.create width in
  Dataflow.iterate g ~forward:false (fun id ->
      let out = live_out.(id) in
      Bitset.assign ~dst:out phi_in.(id);
      Array.iter
        (fun s ->
          Bitset.assign ~dst:contrib live_in.(s);
          Bitset.diff_into ~dst:contrib phi_defs.(s);
          Bitset.union_into ~dst:out contrib)
        g.Dataflow.succs.(id);
      Bitset.assign ~dst:contrib out;
      Bitset.diff_into ~dst:contrib defs.(id);
      Bitset.union_into ~dst:contrib upexposed.(id);
      if Bitset.equal contrib live_in.(id) then false
      else begin
        Bitset.assign ~dst:live_in.(id) contrib;
        true
      end);
  (live_in, live_out)

let phi_placement (r : Routine.t) dom live_in =
  let cfg = r.Routine.cfg in
  let nblocks = Cfg.num_blocks cfg in
  let width = r.Routine.next_reg in
  let def_blocks = Array.make width [] in
  List.iter (fun p -> def_blocks.(p) <- [ Cfg.entry cfg ]) r.Routine.params;
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          Option.iter (fun d -> def_blocks.(d) <- b.Block.id :: def_blocks.(d)) (Instr.def i))
        b.Block.instrs)
    cfg;
  let needs_phi = Array.make nblocks [] in
  for v = 0 to width - 1 do
    match List.sort_uniq compare def_blocks.(v) with
    | [] | [ _ ] -> ()
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
            if (not (Bitset.mem placed d)) && Bitset.mem live_in.(d) v then begin
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

(* [Ssa.build] with folded copies, after the same entry step. *)
let build ?(fold_copies = true) (r : Routine.t) =
  Cfg.give_entry_no_preds r.Routine.cfg;
  let cfg = r.Routine.cfg in
  let g = Dataflow.graph cfg in
  let dom = Dom.compute g in
  let live_in, _ = live_in g r in
  let needs_phi = phi_placement r dom live_in in
  let preds = Cfg.preds cfg in
  let orig_width = r.Routine.next_reg in
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
  let stacks = Array.make orig_width [] in
  let top v =
    if v >= orig_width then v
    else
      match stacks.(v) with
      | n :: _ -> n
      | [] -> raise (Epre_ssa.Ssa.Use_before_def { routine = r.Routine.name; reg = v })
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
        let v = Hashtbl.find phi_origin (bid, dst) in
        push v dst;
        Instr.Phi { dst; args } :: acc
      | Instr.Copy { dst; src } when fold_copies && dst < orig_width ->
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
  r.Routine.in_ssa <- true

let sequentialize ~fresh copies =
  let pending = Hashtbl.create 8 in
  List.iter (fun (d, s) -> if d <> s then Hashtbl.replace pending d s) copies;
  let out = ref [] in
  let emit d s = out := (d, s) :: !out in
  let readers_of src =
    Hashtbl.fold (fun d s acc -> if s = src then d :: acc else acc) pending []
  in
  let rec drain () =
    let ready =
      Hashtbl.fold (fun d _ acc -> if readers_of d = [] then d :: acc else acc) pending []
    in
    match List.sort compare ready with
    | d :: _ ->
      emit d (Hashtbl.find pending d);
      Hashtbl.remove pending d;
      drain ()
    | [] ->
      if Hashtbl.length pending > 0 then begin
        let d = Hashtbl.fold (fun d _ acc -> min d acc) pending max_int in
        let t = fresh () in
        emit t d;
        List.iter (fun d' -> Hashtbl.replace pending d' t) (readers_of d);
        drain ()
      end
  in
  drain ();
  List.rev !out

(* Every edge snapshotted in a list, each tested with the successor list
   of its source. *)
let split_critical_edges (r : Routine.t) =
  let cfg = r.Routine.cfg in
  let preds = Cfg.preds cfg in
  let edges =
    Cfg.fold_blocks
      (fun acc b -> List.fold_left (fun acc s -> (b.Block.id, s) :: acc) acc (Block.succs b))
      [] cfg
  in
  List.iter
    (fun (p, s) ->
      if Epre_ssa.Critical_edges.is_critical cfg preds ~from_:p ~to_:s then
        ignore (Cfg.split_edge cfg ~from_:p ~to_:s))
    edges

let destroy (r : Routine.t) =
  split_critical_edges r;
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
        match preds with
        | [ p ] ->
          let seq = sequentialize ~fresh (pairs_for p) in
          b.Block.instrs <-
            List.map (fun (dst, src) -> Instr.Copy { dst; src }) seq @ Block.non_phis b
        | preds ->
          List.iter
            (fun p ->
              let seq = sequentialize ~fresh (pairs_for p) in
              List.iter
                (fun (dst, src) -> Block.append (Cfg.block cfg p) (Instr.Copy { dst; src }))
                seq)
            preds;
          b.Block.instrs <- Block.non_phis b
      end)
    cfg;
  r.Routine.in_ssa <- false

(* AWZ refinement by whole sweeps: regroup every class by operand-class
   signature until a sweep splits nothing. Returns [class_of] ([-1] for a
   register never defined). *)
type label =
  | LConst of Value.t
  | LUnop of Op.unop
  | LBinop of Op.binop
  | LPhi of int
  | LOpaque of int

let partition ?(commutative = true) (r : Routine.t) =
  let width = max 1 r.Routine.next_reg in
  let label = Array.make width None in
  let operands = Array.make width [||] in
  let commutative_op = Array.make width false in
  let opaque = ref 0 in
  let fresh_opaque () =
    incr opaque;
    LOpaque !opaque
  in
  List.iter (fun p -> label.(p) <- Some (fresh_opaque ())) r.Routine.params;
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          match i with
          | Instr.Const { dst; value } -> label.(dst) <- Some (LConst value)
          | Instr.Copy { dst; _ } -> label.(dst) <- Some (fresh_opaque ())
          | Instr.Unop { op; dst; src } ->
            label.(dst) <- Some (LUnop op);
            operands.(dst) <- [| src |]
          | Instr.Binop { op; dst; a; b } ->
            label.(dst) <- Some (LBinop op);
            operands.(dst) <- [| a; b |];
            commutative_op.(dst) <- Op.commutative op
          | Instr.Load { dst; _ } | Instr.Alloca { dst; _ } ->
            label.(dst) <- Some (fresh_opaque ())
          | Instr.Call { dst = Some d; _ } -> label.(d) <- Some (fresh_opaque ())
          | Instr.Call { dst = None; _ } | Instr.Store _ -> ()
          | Instr.Phi { dst; args } ->
            let args = List.sort (fun (p, _) (q, _) -> compare p q) args in
            label.(dst) <- Some (LPhi b.Block.id);
            operands.(dst) <- Array.of_list (List.map snd args))
        b.Block.instrs)
    r.Routine.cfg;
  let class_of = Array.make width (-1) in
  let by_label : (label, int) Hashtbl.t = Hashtbl.create 64 in
  let next_class = ref 0 in
  for v = 0 to width - 1 do
    match label.(v) with
    | None -> ()
    | Some l -> begin
      match Hashtbl.find_opt by_label l with
      | Some c -> class_of.(v) <- c
      | None ->
        let c = !next_class in
        incr next_class;
        Hashtbl.replace by_label l c;
        class_of.(v) <- c
    end
  done;
  let signature v =
    let sig_ = Array.map (fun o -> class_of.(o)) operands.(v) in
    if commutative && commutative_op.(v) then Array.sort compare sig_;
    sig_
  in
  let changed = ref true in
  while !changed do
    changed := false;
    let members = Hashtbl.create 64 in
    for v = 0 to width - 1 do
      if class_of.(v) >= 0 then
        Hashtbl.replace members class_of.(v)
          (v :: Option.value ~default:[] (Hashtbl.find_opt members class_of.(v)))
    done;
    Hashtbl.iter
      (fun _c vs ->
        match vs with
        | [] | [ _ ] -> ()
        | vs ->
          let groups : (int array, int list) Hashtbl.t = Hashtbl.create 8 in
          List.iter
            (fun v ->
              let s = signature v in
              Hashtbl.replace groups s
                (v :: Option.value ~default:[] (Hashtbl.find_opt groups s)))
            vs;
          if Hashtbl.length groups > 1 then begin
            changed := true;
            let keys =
              List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) groups [])
            in
            List.iteri
              (fun idx key ->
                if idx > 0 then begin
                  let c = !next_class in
                  incr next_class;
                  List.iter (fun v -> class_of.(v) <- c) (Hashtbl.find groups key)
                end)
              keys
          end)
      members
  done;
  class_of
