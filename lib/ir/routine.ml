(** A compiled routine: parameters, CFG, and the virtual-register supply. *)

type t = {
  name : string;
  params : Instr.reg list;
  cfg : Cfg.t;
  mutable next_reg : int;
  mutable in_ssa : bool;
      (** True between SSA construction and destruction; passes assert the
          form they expect. *)
}

let create ~name ~params ~cfg ~next_reg =
  { name; params; cfg; next_reg; in_ssa = false }

(** Deep copy: blocks are rebuilt, so mutating the copy leaves the original
    untouched (instruction lists are immutable values). *)
let copy r =
  { name = r.name; params = r.params; cfg = Cfg.copy r.cfg; next_reg = r.next_reg;
    in_ssa = r.in_ssa }

(** Roll [r] back to the state captured in a [copy]. The snapshot survives,
    so one checkpoint can back out several failed attempts. *)
let restore r ~from =
  if r.name <> from.name then
    invalid_arg
      (Printf.sprintf "Routine.restore: %s from snapshot of %s" r.name from.name);
  Cfg.restore r.cfg ~from:from.cfg;
  r.next_reg <- from.next_reg;
  r.in_ssa <- from.in_ssa

(* Constants compare bit for bit: [0.0] against [-0.0] is a different
   program, and so is a NaN with another payload. *)
let same_value (a : Value.t) (b : Value.t) =
  match (a, b) with
  | F x, F y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Value.equal a b

let same_instr a b =
  match (a, b) with
  | Instr.Const { dst; value }, Instr.Const { dst = dst'; value = value' } ->
    dst = dst' && same_value value value'
  | Instr.Alloca { dst; words; init }, Instr.Alloca { dst = dst'; words = words'; init = init' }
    ->
    dst = dst' && words = words' && same_value init init'
  | _ -> Instr.equal a b

(* [copy] shares each block's instruction list, so a block a pass left
   alone is usually the very same list. *)
let same_block (a : Block.t) (b : Block.t) =
  a.Block.id = b.Block.id
  && (a.Block.instrs == b.Block.instrs || List.equal same_instr a.Block.instrs b.Block.instrs)
  && a.Block.term = b.Block.term

let equal a b =
  let n = Cfg.num_blocks a.cfg in
  let same_slot i =
    match (Cfg.find_block a.cfg i, Cfg.find_block b.cfg i) with
    | None, None -> true
    | Some x, Some y -> same_block x y
    | Some _, None | None, Some _ -> false
  in
  let rec slots_from i = i = n || (same_slot i && slots_from (i + 1)) in
  a.name = b.name && a.params = b.params && a.next_reg = b.next_reg && a.in_ssa = b.in_ssa
  && Cfg.entry a.cfg = Cfg.entry b.cfg
  && n = Cfg.num_blocks b.cfg
  && slots_from 0

let fresh_reg r =
  let v = r.next_reg in
  r.next_reg <- v + 1;
  v

(** Static ILOC operation count (instructions + terminators), the metric of
    the paper's Table 2. *)
let op_count r = Cfg.fold_blocks (fun acc b -> acc + Block.op_count b) 0 r.cfg

let instr_count r =
  Cfg.fold_blocks (fun acc b -> acc + List.length b.Block.instrs) 0 r.cfg

exception Ill_formed of string

(* Structural well-formedness; the SSA checker in [Epre_ssa] does the
   dominance-aware part. *)
let validate r =
  let fail fmt = Printf.ksprintf (fun s -> raise (Ill_formed (r.name ^ ": " ^ s))) fmt in
  let cfg = r.cfg in
  if not (Cfg.mem cfg (Cfg.entry cfg)) then fail "entry block missing";
  let preds = Cfg.preds cfg in
  Cfg.iter_blocks
    (fun b ->
      let id = b.Block.id in
      List.iter
        (fun s ->
          if not (Cfg.mem cfg s) then fail "block %d jumps to missing block %d" id s)
        (Block.succs b);
      let seen_non_phi = ref false in
      List.iteri
        (fun idx i ->
          (match i with
          | Instr.Phi { args; _ } ->
            if !seen_non_phi then fail "block %d, instr %d: phi after non-phi" id idx;
            let expect = List.sort compare preds.(id) in
            let got = List.sort compare (List.map fst args) in
            if expect <> got then
              fail "block %d, instr %d: phi preds %s do not match CFG preds %s" id idx
                (String.concat "," (List.map string_of_int got))
                (String.concat "," (List.map string_of_int expect))
          | _ -> seen_non_phi := true);
          List.iter
            (fun u ->
              if u < 0 || u >= r.next_reg then
                fail "block %d, instr %d: use of r%d out of range" id idx u)
            (Instr.uses i);
          match Instr.def i with
          | Some d when d < 0 || d >= r.next_reg ->
            fail "block %d, instr %d: def of r%d out of range" id idx d
          | _ -> ())
        b.Block.instrs;
      List.iter
        (fun u -> if u < 0 || u >= r.next_reg then fail "block %d: terminator uses r%d out of range" id u)
        (Instr.term_uses b.Block.term))
    cfg
