(** Partition-based global value numbering — the congruence analysis of
    Alpern, Wegman and Zadeck [2], which Section 3.2 adopts.

    Works on SSA. Instead of building equalities up from facts (as
    hash-based value numbering does), it starts from the optimistic
    assumption that all values defined the same way are equivalent and lets
    the statements of the program disprove equivalences: classes are
    repeatedly split until each class is congruent — same defining operator,
    congruent operands position by position (phis additionally must sit in
    the same block).

    [config.commutative] normalizes the operand order of commutative
    operators before comparison. It is on by default: the Section 2.2
    motivating example ([x = y + z; a = y; b = a + z]) presents the two
    sums with opposite operand orders once SSA copy folding has run, and
    the paper clearly expects value numbering to catch it. Setting it to
    false gives the positional "simplest variation described by Alpern,
    Wegman, and Zadeck". *)

open Epre_util
open Epre_ir

type config = { commutative : bool }

let default_config = { commutative = true }

(* Initial labels: values defined the same way start in one class.
   Parameters, copies, loads, calls and allocas are opaque singletons and
   need no label. *)
type label = LConst of Value.t | LUnop of Op.unop | LBinop of Op.binop | LPhi of int  (** block id *)

module Labels = Hashtbl.Make (struct
  type t = label

  let equal a b =
    match a, b with
    | LConst u, LConst v -> Value.equal u v
    | LUnop o, LUnop o' -> o = o'
    | LBinop o, LBinop o' -> o = o'
    | LPhi x, LPhi y -> x = y
    | (LConst _ | LUnop _ | LBinop _ | LPhi _), _ -> false

  (* Operators are constant constructors: [Hashtbl.hash] of one hashes
     an immediate. *)
  let hash = function
    | LConst v -> Value.hash v
    | LUnop o -> (3 * Hashtbl.hash o) + 1
    | LBinop o -> (3 * Hashtbl.hash o) + 2
    | LPhi b -> 3 * b
end)

(* Everything below is indexed by the dense rank of a defined register
   ([Bitset.index]): once passes have renamed a routine, its register
   numbers are sparse, and register-wide arrays would be mostly unused. *)
type t = {
  defined : Bitset.index;  (** registers with a definition, params included *)
  regs : int array;  (** dense index -> register, ascending *)
  cls : int array;  (** dense index -> class id *)
  leader : int array;  (** dense index -> smallest register of its class *)
}

(* Lexicographic order on signatures. *)
let compare_sig (x : int array) (y : int array) =
  let n = Array.length x in
  if n <> Array.length y then Int.compare n (Array.length y)
  else begin
    let rec go k =
      if k = n then 0
      else
        let c = Int.compare x.(k) y.(k) in
        if c <> 0 then c else go (k + 1)
    in
    go 0
  end

(* Refinement to the coarsest stable partition below the labels: a class
   is split by its members' operand-class signatures until every class
   agrees. Only a class with a member reading a moved register can become
   unstable, so a worklist of those classes replaces whole-program
   sweeps. Every stable refinement of the labels refines the result, so
   the classes (though not their ids) are the same whatever order the
   worklist takes. *)
let build ?(config = default_config) (r : Routine.t) =
  if not r.Routine.in_ssa then invalid_arg "Partition.build: requires SSA form";
  let width = max 1 r.Routine.next_reg in
  let cfg = r.Routine.cfg in
  (* First walk: the defined registers, and how many operands there are. *)
  let defined = Bitset.create width in
  List.iter (Bitset.add defined) r.Routine.params;
  let nops = ref 0 in
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (function
          | Instr.Const { dst; _ } | Instr.Copy { dst; _ } | Instr.Load { dst; _ }
          | Instr.Alloca { dst; _ } | Instr.Call { dst = Some dst; _ } ->
            Bitset.add defined dst
          | Instr.Unop { dst; _ } ->
            Bitset.add defined dst;
            nops := !nops + 1
          | Instr.Binop { dst; _ } ->
            Bitset.add defined dst;
            nops := !nops + 2
          | Instr.Phi { dst; args } ->
            Bitset.add defined dst;
            nops := !nops + List.length args
          | Instr.Call { dst = None; _ } | Instr.Store _ -> ())
        b.Block.instrs)
    cfg;
  let ix = Bitset.index defined in
  let m = Bitset.index_size ix in
  let rank = Bitset.rank ix in
  (* Second walk: initial classes by label, and each register's operands
     as dense indices ([-1] for a register with no definition) in
     [ops.(first.(k)) ..], [arity.(k)] of them. *)
  let cls = Array.make m (-1) in
  let first = Array.make m 0 and arity = Array.make m 0 in
  let commutes = Bytes.make m '\000' in
  let ops = Array.make !nops 0 in
  let pos = ref 0 in
  let operand o =
    ops.(!pos) <- rank o;
    incr pos
  in
  let nclasses = ref 0 in
  let fresh () =
    let c = !nclasses in
    incr nclasses;
    c
  in
  let by_label = Labels.create 64 in
  let labeled l =
    match Labels.find_opt by_label l with
    | Some c -> c
    | None ->
      let c = fresh () in
      Labels.add by_label l c;
      c
  in
  let set dst c n =
    let k = rank dst in
    cls.(k) <- c;
    if n > 0 then begin
      first.(k) <- !pos;
      arity.(k) <- n
    end;
    k
  in
  List.iter (fun p -> ignore (set p (fresh ()) 0)) r.Routine.params;
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (function
          | Instr.Const { dst; value } -> ignore (set dst (labeled (LConst value)) 0)
          | Instr.Copy { dst; _ } ->
            (* Copies are folded away by the SSA construction this library
               performs; any survivor is treated opaquely, which is merely
               conservative. *)
            ignore (set dst (fresh ()) 0)
          | Instr.Unop { op; dst; src } ->
            ignore (set dst (labeled (LUnop op)) 1);
            operand src
          | Instr.Binop { op; dst; a; b } ->
            let k = set dst (labeled (LBinop op)) 2 in
            operand a;
            operand b;
            Bytes.set commutes k (if config.commutative && Op.commutative op then '\001' else '\000')
          | Instr.Load { dst; _ } | Instr.Alloca { dst; _ } | Instr.Call { dst = Some dst; _ } ->
            ignore (set dst (fresh ()) 0)
          | Instr.Call { dst = None; _ } | Instr.Store _ -> ()
          | Instr.Phi { dst; args } ->
            let args = List.sort (fun (p, _) (q, _) -> Int.compare p q) args in
            ignore (set dst (labeled (LPhi b.Block.id)) (List.length args));
            List.iter (fun (_, o) -> operand o) args)
        b.Block.instrs)
    cfg;
  (* Members per class; a split adds at most one class per register. *)
  let members = Array.make (!nclasses + m) [||] in
  let size = Array.make !nclasses 0 in
  Array.iter (fun c -> size.(c) <- size.(c) + 1) cls;
  Array.iteri (fun c n -> members.(c) <- Array.make n 0) size;
  Array.fill size 0 !nclasses 0;
  Array.iteri
    (fun k c ->
      members.(c).(size.(c)) <- k;
      size.(c) <- size.(c) + 1)
    cls;
  (* users.(start.(o) .. start.(o + 1) - 1): the registers reading [o]. *)
  let start = Array.make (m + 1) 0 in
  Array.iter (fun o -> if o >= 0 then start.(o + 1) <- start.(o + 1) + 1) ops;
  for o = 1 to m do
    start.(o) <- start.(o) + start.(o - 1)
  done;
  let users = Array.make start.(m) 0 in
  let fill = Array.sub start 0 (max 1 m) in
  Array.iteri
    (fun k n ->
      for j = first.(k) to first.(k) + n - 1 do
        let o = ops.(j) in
        if o >= 0 then begin
          users.(fill.(o)) <- k;
          fill.(o) <- fill.(o) + 1
        end
      done)
    arity;
  (* Operand [j] of [k] by class; a commutative pair in ascending order. *)
  let class_of_op j = if ops.(j) < 0 then -1 else cls.(ops.(j)) in
  let sig_at k j =
    let f = first.(k) in
    if Bytes.get commutes k = '\000' then class_of_op (f + j)
    else
      let x = class_of_op f and y = class_of_op (f + 1) in
      if (j = 0) = (x <= y) then x else y
  in
  let same_sig k k' =
    let n = arity.(k) in
    n = arity.(k')
    &&
    let rec go j = j = n || (sig_at k j = sig_at k' j && go (j + 1)) in
    go 0
  in
  let queued = Bytes.make (Array.length members) '\000' in
  let work = ref [] in
  let enqueue c =
    if Array.length members.(c) > 1 && Bytes.get queued c = '\000' then begin
      Bytes.set queued c '\001';
      work := c :: !work
    end
  in
  for c = !nclasses - 1 downto 0 do
    enqueue c
  done;
  while !work <> [] do
    let c = List.hd !work in
    work := List.tl !work;
    Bytes.set queued c '\000';
    let ms = members.(c) in
    if not (Array.for_all (same_sig ms.(0)) ms) then begin
      let sigs = Array.map (fun k -> Array.init arity.(k) (sig_at k)) ms in
      let n = Array.length ms in
      let order = Array.init n Fun.id in
      Array.stable_sort (fun i j -> compare_sig sigs.(i) sigs.(j)) order;
      (* Runs of equal signatures: the first keeps [c]. *)
      let moved = ref [] in
      let run = ref 0 in
      for i = 1 to n do
        if i = n || compare_sig sigs.(order.(i)) sigs.(order.(!run)) <> 0 then begin
          let group = Array.init (i - !run) (fun j -> ms.(order.(!run + j))) in
          if !run = 0 then members.(c) <- group
          else begin
            let c' = fresh () in
            members.(c') <- group;
            Array.iter (fun k -> cls.(k) <- c') group;
            moved := group :: !moved
          end;
          run := i
        end
      done;
      List.iter
        (Array.iter (fun k ->
             for u = start.(k) to start.(k + 1) - 1 do
               enqueue cls.(users.(u))
             done))
        !moved
    end
  done;
  let regs = Array.make m 0 in
  Bitset.iter (fun v -> regs.(rank v) <- v) defined;
  (* Ascending registers meet each class's smallest member first. *)
  let least = Array.make !nclasses (-1) in
  let leader =
    Array.mapi
      (fun k c ->
        if least.(c) < 0 then least.(c) <- regs.(k);
        least.(c))
      cls
  in
  { defined = ix; regs; cls; leader }

let class_of t reg =
  let k = Bitset.rank t.defined reg in
  if k < 0 then -1 else t.cls.(k)

let congruent t a b =
  let c = class_of t a in
  c >= 0 && c = class_of t b

let registers t = t.regs

let leader t reg =
  let k = Bitset.rank t.defined reg in
  if k < 0 then reg else t.leader.(k)
