(** Sparse conditional constant propagation (Wegman–Zadeck), the paper's
    baseline "global constant propagation [26]".

    The analysis runs on SSA built internally (the pass is an ILOC -> ILOC
    filter like every other). Lattice per register: Top (no evidence yet),
    Const v, Bottom. Flow edges become executable as branches are decided;
    phi meets only consider executable incoming edges. After the fixpoint,
    constant registers are rematerialized as [Const], decided branches
    become jumps, newly unreachable blocks are dropped (with phi arguments
    filtered to the surviving predecessors), and SSA is destroyed. *)

open Epre_ir

type lattice = Top | Known of Value.t | Bottom

let meet a b =
  match a, b with
  | Top, x | x, Top -> x
  | Bottom, _ | _, Bottom -> Bottom
  | Known u, Known v -> if Value.equal u v then a else Bottom

(* A use of a register: an instruction (with its block) or a block's
   terminator. *)
type site = Use of int * Instr.t | Term_use of int

type state = {
  routine : Routine.t;
  value : lattice array;
  executable_preds : int list array;
      (** by block: the sources of its executable edges; -1 for entry *)
  block_visited : bool array;
  use_sites : site list array;  (** by register *)
  flow_work : int Queue.t;  (** targets of edges newly found executable *)
  ssa_work : Instr.reg Queue.t;
}

let lattice_equal a b =
  match a, b with
  | Top, Top | Bottom, Bottom -> true
  | Known u, Known v -> Value.equal u v
  | Top, (Known _ | Bottom) | Known _, (Top | Bottom) | Bottom, (Top | Known _) -> false

(* Monotone update: meet with the old value, so registers only ever move
   down the lattice. [Value.equal] treats NaN as equal to itself, keeping
   the fixpoint finite even for float constants. *)
let set_value st reg v =
  let v = meet st.value.(reg) v in
  if not (lattice_equal st.value.(reg) v) then begin
    st.value.(reg) <- v;
    Queue.add reg st.ssa_work
  end

let add_flow_edge st ~from_ ~to_ =
  if not (List.mem from_ st.executable_preds.(to_)) then begin
    st.executable_preds.(to_) <- from_ :: st.executable_preds.(to_);
    Queue.add to_ st.flow_work
  end

let eval_phi st ~block dst args =
  let v =
    List.fold_left
      (fun acc (p, src) ->
        if List.mem p st.executable_preds.(block) then meet acc st.value.(src)
        else acc)
      Top args
  in
  set_value st dst v

let eval_instr st ~block i =
  match i with
  | Instr.Const { dst; value = v } -> set_value st dst (Known v)
  | Instr.Copy { dst; src } -> set_value st dst st.value.(src)
  | Instr.Unop { op; dst; src } -> begin
    match st.value.(src) with
    | Top -> ()
    | Bottom -> set_value st dst Bottom
    | Known v -> begin
      match Op.eval_unop op v with
      | v' -> set_value st dst (Known v')
      | exception Value.Type_error _ -> set_value st dst Bottom
    end
  end
  | Instr.Binop { op; dst; a; b } -> begin
    match st.value.(a), st.value.(b) with
    | Top, _ | _, Top -> ()
    | Known va, Known vb -> begin
      match Op.eval_binop op va vb with
      | v -> set_value st dst (Known v)
      | exception (Op.Division_by_zero | Value.Type_error _) -> set_value st dst Bottom
    end
    | _, _ -> set_value st dst Bottom
  end
  | Instr.Load { dst; _ } | Instr.Alloca { dst; _ } -> set_value st dst Bottom
  | Instr.Call { dst = Some d; _ } -> set_value st d Bottom
  | Instr.Call { dst = None; _ } | Instr.Store _ -> ()
  | Instr.Phi { dst; args } -> eval_phi st ~block dst args

let eval_term st ~block term =
  match term with
  | Instr.Jump l -> add_flow_edge st ~from_:block ~to_:l
  | Instr.Ret _ -> ()
  | Instr.Cbr { cond; ifso; ifnot } -> begin
    match st.value.(cond) with
    | Top -> ()
    | Known (Value.I c) ->
      add_flow_edge st ~from_:block ~to_:(if c <> 0 then ifso else ifnot)
    | Known (Value.F _) | Bottom ->
      add_flow_edge st ~from_:block ~to_:ifso;
      add_flow_edge st ~from_:block ~to_:ifnot
  end

let visit_block st block =
  let b = Cfg.block st.routine.Routine.cfg block in
  List.iter (fun i -> eval_instr st ~block i) b.Block.instrs;
  eval_term st ~block b.Block.term

let analyze (r : Routine.t) =
  let cfg = r.Routine.cfg in
  let width = max 1 r.Routine.next_reg in
  let st =
    {
      routine = r;
      value = Array.make width Top;
      executable_preds = Array.make (Cfg.num_blocks cfg) [];
      block_visited = Array.make (Cfg.num_blocks cfg) false;
      use_sites = Array.make width [];
      flow_work = Queue.create ();
      ssa_work = Queue.create ();
    }
  in
  List.iter (fun p -> st.value.(p) <- Bottom) r.Routine.params;
  Cfg.iter_blocks
    (fun b ->
      let id = b.Block.id in
      let note site u = st.use_sites.(u) <- site :: st.use_sites.(u) in
      List.iter
        (fun i ->
          let site = Use (id, i) in
          match i with
          | Instr.Const _ | Instr.Alloca _ -> ()
          | Instr.Copy { src; _ } | Instr.Unop { src; _ } -> note site src
          | Instr.Binop { a; b; _ } ->
            note site a;
            note site b
          | Instr.Load { addr; _ } -> note site addr
          | Instr.Store { addr; src } ->
            note site addr;
            note site src
          | Instr.Call { args; _ } -> List.iter (note site) args
          | Instr.Phi { args; _ } -> List.iter (fun (_, a) -> note site a) args)
        b.Block.instrs;
      match b.Block.term with
      | Instr.Cbr { cond = u; _ } | Instr.Ret (Some u) -> note (Term_use id) u
      | Instr.Jump _ | Instr.Ret None -> ())
    cfg;
  add_flow_edge st ~from_:(-1) ~to_:(Cfg.entry cfg);
  while not (Queue.is_empty st.flow_work && Queue.is_empty st.ssa_work) do
    while not (Queue.is_empty st.flow_work) do
      let s = Queue.take st.flow_work in
      if not st.block_visited.(s) then begin
        st.block_visited.(s) <- true;
        visit_block st s
      end
      else begin
        (* Re-evaluate only the phis: a new incoming edge can change them. *)
        let b = Cfg.block cfg s in
        List.iter
          (function
            | Instr.Phi { dst; args } -> eval_phi st ~block:s dst args
            | _ -> ())
          b.Block.instrs
      end
    done;
    while not (Queue.is_empty st.ssa_work) do
      let reg = Queue.take st.ssa_work in
      List.iter
        (function
          | Use (block, i) -> if st.block_visited.(block) then eval_instr st ~block i
          | Term_use block ->
            if st.block_visited.(block) then eval_term st ~block (Cfg.block cfg block).Block.term)
        st.use_sites.(reg)
    done
  done;
  st

(* ------------------------------------------------------------------ *)
(* Rewriting                                                           *)

let rewrite (r : Routine.t) (st : state) =
  let cfg = r.Routine.cfg in
  let replaced = ref 0 in
  let becomes_const = function
    | Instr.Call _ | Instr.Store _ | Instr.Alloca _ | Instr.Const _ -> false
    | Instr.Phi { dst = d; _ } | Instr.Copy { dst = d; _ } | Instr.Unop { dst = d; _ }
    | Instr.Binop { dst = d; _ } | Instr.Load { dst = d; _ } -> (
      match st.value.(d) with Known _ -> true | Top | Bottom -> false)
  in
  Cfg.iter_blocks
    (fun b ->
      (* Phis may become constants; keep block layout legal by splitting
         into (phis, everything else) and putting constants between. A
         block where nothing becomes a constant stays as it is: its phis
         already lead it. *)
      if List.exists becomes_const b.Block.instrs then begin
        let phis, consts, rest =
          List.fold_left
            (fun (phis, consts, rest) i ->
              match i, Instr.def i with
              | Instr.Phi _, Some d -> begin
                match st.value.(d) with
                | Known v ->
                  incr replaced;
                  (phis, Instr.Const { dst = d; value = v } :: consts, rest)
                | Top | Bottom -> (i :: phis, consts, rest)
              end
              | (Instr.Call _ | Instr.Store _ | Instr.Alloca _), _ ->
                (phis, consts, i :: rest)
              | Instr.Const _, _ -> (phis, consts, i :: rest)
              | _, Some d -> begin
                match st.value.(d) with
                | Known v ->
                  incr replaced;
                  (phis, consts, Instr.Const { dst = d; value = v } :: rest)
                | Top | Bottom -> (phis, consts, i :: rest)
              end
              | _, None -> (phis, consts, i :: rest))
            ([], [], []) b.Block.instrs
        in
        b.Block.instrs <- List.rev phis @ List.rev consts @ List.rev rest
      end;
      match b.Block.term with
      | Instr.Cbr { cond; ifso; ifnot } -> begin
        match st.value.(cond) with
        | Known (Value.I c) ->
          b.Block.term <- Instr.Jump (if c <> 0 then ifso else ifnot)
        | Known (Value.F _) | Top | Bottom -> ()
      end
      | Instr.Jump _ | Instr.Ret _ -> ())
    cfg;
  (* Decided branches may strand blocks; drop them and trim phi arguments
     down to the surviving predecessors. *)
  let reachable = Cfg.reachable cfg in
  Cfg.iter_blocks
    (fun b ->
      if (not (Epre_util.Bitset.mem reachable b.Block.id)) && b.Block.id <> Cfg.entry cfg
      then Cfg.remove_block cfg b.Block.id)
    cfg;
  let preds = Cfg.preds cfg in
  Cfg.iter_blocks
    (fun b ->
      match b.Block.instrs with
      | Instr.Phi _ :: _ ->
        b.Block.instrs <-
          List.map
            (function
              | Instr.Phi { dst; args } ->
                let args = List.filter (fun (p, _) -> List.mem p preds.(b.Block.id)) args in
                (match args with
                | [ (_, src) ] -> Instr.Copy { dst; src }
                | _ -> Instr.Phi { dst; args })
              | i -> i)
            b.Block.instrs
      | _ -> ())
    cfg;
  !replaced

(** The pass: ILOC in, ILOC out. *)
let run (r : Routine.t) =
  ignore (Epre_ssa.Ssa.build r);
  let st = analyze r in
  let replaced = rewrite r st in
  let r = Epre_ssa.Ssa.destroy r in
  ignore r;
  replaced
