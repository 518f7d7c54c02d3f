(** The expression universe shared by PRE and available-expression CSE.

    Under the Section 2.2 naming discipline each expression has exactly one
    name, so an expression is identified by its canonical destination
    register. This module collects the universe for a routine and the
    block-local properties every bit-vector pass needs:

    - [ANTLOC] (locally anticipable): evaluated in the block before any
      operand is (re)defined;
    - [COMP] (locally available): evaluated, and no operand is redefined
      afterwards;
    - [KILL] (transparency's complement): some operand is redefined, or the
      expression is a load and the block contains a store or a call.

    Registers violating the discipline — several keys per name, or a name
    also targeted by a copy/call/phi — are conservatively excluded; running
    [Naming.run] first makes the universe total. *)

open Epre_util
open Epre_ir

type key = Expr_key.t =
  | KConst of Value.t
  | KUnop of Op.unop * Instr.reg
  | KBinop of Op.binop * Instr.reg * Instr.reg
  | KLoad of Instr.reg

let key_of = Expr_key.of_instr


let is_load = function KLoad _ -> true | KConst _ | KUnop _ | KBinop _ -> false

type expr = {
  index : int;  (** dense index into the bit vectors *)
  name : Instr.reg;  (** the canonical destination *)
  key : key;
}

type t = {
  exprs : expr array;
  of_name : expr option array;  (** indexed by register *)
  (* killed_by.(reg) = indices of expressions with reg as an operand *)
  killed_by : int list array;
  loads : int list;  (** indices of load expressions *)
}

let size t = Array.length t.exprs

let exprs t = t.exprs

let expr_of_name t reg = t.of_name.(reg)

(* What the definitions seen so far say about a register. *)
type status =
  | Unseen
  | One of key  (** every definition evaluates this key (the latest one seen) *)
  | Bad  (** a parameter, a non-expression definition, or two different keys *)

let build (r : Routine.t) =
  let width = max 1 r.Routine.next_reg in
  let status = Array.make width Unseen in
  List.iter (fun p -> status.(p) <- Bad) r.Routine.params;
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          match Instr.def i with
          | None -> ()
          | Some d ->
            status.(d) <-
              (match status.(d), key_of i with
              | Unseen, Some k -> One k
              (* Two [KConst nan] definitions differ. *)
              | One k', Some k when Expr_key.identical k' k -> One k
              | _ -> Bad))
        b.Block.instrs)
    r.Routine.cfg;
  let of_name = Array.make width None in
  let exprs = ref [] and n = ref 0 in
  (* Ascending register order makes the dense indices deterministic. *)
  Array.iteri
    (fun name -> function
      | One key ->
        let e = { index = !n; name; key } in
        incr n;
        of_name.(name) <- Some e;
        exprs := e :: !exprs
      | Unseen | Bad -> ())
    status;
  let exprs = Array.of_list (List.rev !exprs) in
  let killed_by = Array.make width [] in
  let loads = ref [] in
  Array.iter
    (fun e ->
      List.iter
        (fun operand -> killed_by.(operand) <- e.index :: killed_by.(operand))
        (Expr_key.operands e.key);
      if is_load e.key then loads := e.index :: !loads)
    exprs;
  { exprs; of_name; killed_by; loads = !loads }

(* ------------------------------------------------------------------ *)
(* Block-local properties                                              *)

type local = {
  antloc : Bitset.t array;
  comp : Bitset.t array;
  kill : Bitset.t array;
  repeats : bool array;
  bodies : Instr.t list array;
}

let evaluated t = function
  | Instr.Const { dst; _ } | Instr.Unop { dst; _ } | Instr.Binop { dst; _ }
  | Instr.Load { dst; _ } ->
    t.of_name.(dst)
  | Instr.Copy _ | Instr.Store _ | Instr.Alloca _ | Instr.Call _ | Instr.Phi _ -> None

let iter_kills t i f =
  match i with
  | Instr.Const { dst; _ } | Instr.Copy { dst; _ } | Instr.Unop { dst; _ }
  | Instr.Binop { dst; _ } | Instr.Load { dst; _ } | Instr.Alloca { dst; _ }
  | Instr.Phi { dst; _ } ->
    List.iter f t.killed_by.(dst)
  | Instr.Call { dst; _ } ->
    (match dst with Some d -> List.iter f t.killed_by.(d) | None -> ());
    List.iter f t.loads
  | Instr.Store _ -> List.iter f t.loads

(* The local sets of one block body, in fresh sets; [killed_so_far] is
   scratch. *)
let block_local t ~killed_so_far instrs =
  let width = Array.length t.exprs in
  let antloc = Bitset.create width and comp = Bitset.create width
  and kill = Bitset.create width in
  Bitset.clear killed_so_far;
  let repeats = ref false in
  let kills idx =
    Bitset.add killed_so_far idx;
    Bitset.add kill idx;
    Bitset.remove comp idx
  in
  List.iter
    (fun i ->
      (* Evaluation first: an instruction that evaluates e and defines
         one of e's operands (impossible under the discipline, but be
         safe) counts the evaluation before the kill. *)
      (match evaluated t i with
      | Some e ->
        if not (Bitset.mem killed_so_far e.index) then Bitset.add antloc e.index;
        if Bitset.mem comp e.index then repeats := true;
        Bitset.add comp e.index
      | None -> ());
      iter_kills t i kills)
    instrs;
  (antloc, comp, kill, !repeats)

(* [local] with the blocks of [ids] recomputed from their bodies. *)
let recompute t local (r : Routine.t) ids =
  let killed_so_far = Bitset.create (Array.length t.exprs) in
  List.iter
    (fun id ->
      let body = (Cfg.block r.Routine.cfg id).Block.instrs in
      let antloc, comp, kill, repeats = block_local t ~killed_so_far body in
      local.antloc.(id) <- antloc;
      local.comp.(id) <- comp;
      local.kill.(id) <- kill;
      local.repeats.(id) <- repeats;
      local.bodies.(id) <- body)
    ids

let compute_local t (r : Routine.t) =
  let nblocks = Cfg.num_blocks r.Routine.cfg in
  (* A hole in the block table keeps one shared empty set; every block
     gets its own. *)
  let empty = Bitset.create (Array.length t.exprs) in
  let local =
    { antloc = Array.make nblocks empty; comp = Array.make nblocks empty;
      kill = Array.make nblocks empty; repeats = Array.make nblocks false;
      bodies = Array.make nblocks [] }
  in
  recompute t local r (Cfg.fold_blocks (fun acc b -> b.Block.id :: acc) [] r.Routine.cfg);
  local

let refresh_local t local (r : Routine.t) =
  let changed =
    Cfg.fold_blocks
      (fun acc b -> if b.Block.instrs != local.bodies.(b.Block.id) then b.Block.id :: acc else acc)
      [] r.Routine.cfg
  in
  if changed = [] then local
  else begin
    let local =
      { antloc = Array.copy local.antloc; comp = Array.copy local.comp;
        kill = Array.copy local.kill; repeats = Array.copy local.repeats;
        bodies = Array.copy local.bodies }
    in
    recompute t local r changed;
    local
  end
