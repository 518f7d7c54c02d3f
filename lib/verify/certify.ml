(** Static equivalence checks for optimizer steps. See the interface.

    Why {!motion} is sound. Call the input P, the output Q, and M the
    output with every redundant deletion put back at its site (a
    "virtual" evaluation). A virtual [d := e] only rewrites [d] with the
    value it already holds in Q, so Q and M compute the same values. The
    claim is that at matching points of a run of P and a run of M (same
    path, landing blocks aside), every register live in M holds the same
    value in both runs, where liveness counts the reads of kept
    instructions, put-back deletions and terminators but not those of
    insertions. It holds at the entry: both frames start equal.
    - A kept instruction reads registers live in M, so it computes the
      same value, branches the same way, stores, calls and emits the same
      things; it defines the same register in both.
    - A deletion that is dead in M changes only a register M does not
      read before redefining it. It is no store, call or alloca, so
      memory and later addresses do not move. The P run completed, so it
      did not fault there.
    - An insertion whose destination is dead in M changes nothing M
      reads. It is paid for: P evaluates the same expression further
      along the same path, on operand values the output has not changed
      since and that are live in M there. So the insertion computes a
      value P computed without faulting.
    So every kept instruction and terminator sees the same values in
    both runs: same path, same calls and emits, same return. Each
    insertion a run executes maps to its own deletion later on that run,
    so the output runs no more operations than the input but for the
    jumps of the landing blocks it passes, which [growth] bounds. *)

open Epre_util
open Epre_ir
open Epre_analysis

type checker = before:Routine.t -> after:Routine.t -> float option

exception Decline

let decline () = raise Decline

let attempt f = try Some (f ()) with Decline | Invalid_argument _ -> None

let is_phi = function Instr.Phi _ -> true | _ -> false

(* The header both checkers require: same routine, same parameters,
   neither side in SSA. *)
let same_header (p : Routine.t) (q : Routine.t) =
  if
    p.Routine.name <> q.Routine.name
    || p.Routine.params <> q.Routine.params
    || p.Routine.in_ssa || q.Routine.in_ssa
  then decline ()

(* ------------------------------------------------------------------ *)
(* Motion                                                             *)

(* One position of an aligned block, in output order. A deletion is
   [redundant] once availability finds its evaluation in the output. *)
type item =
  | Kept of Instr.t
  | Inserted of Instr.t
  | Deleted of { instr : Instr.t; mutable redundant : bool }

(* Align an input block's instructions with the output's, when the
   output is the input with instructions deleted and one run of
   instructions the input lacks inserted: set the common suffix aside,
   match each output instruction to the first equal input one after the
   last match, and require the output's unmatched tail to be new to the
   input. That keeps a longest common subsequence. Any other edit
   declines; DCE's and PRE's all have this shape on the kernel suite. *)
let align (pi : Instr.t list) (qi : Instr.t list) =
  if pi == qi then Array.of_list (List.map (fun i -> Kept i) pi)
  else begin
    let a = Array.of_list pi and b = Array.of_list qi in
    let n = Array.length a and m = Array.length b in
    let suf = ref 0 in
    while !suf < n && !suf < m && Instr.equal a.(n - 1 - !suf) b.(m - 1 - !suf) do
      incr suf
    done;
    let gn = n - !suf and gm = m - !suf in
    let items = ref [] and i = ref 0 and j = ref 0 and stuck = ref false in
    let delete_upto k =
      for d = !i to k - 1 do
        items := Deleted { instr = a.(d); redundant = false } :: !items
      done
    in
    while !j < gm && not !stuck do
      let k = ref !i in
      while !k < gn && not (Instr.equal a.(!k) b.(!j)) do
        incr k
      done;
      if !k = gn then stuck := true
      else begin
        delete_upto !k;
        items := Kept b.(!j) :: !items;
        i := !k + 1;
        incr j
      end
    done;
    for t = !j to gm - 1 do
      for k = 0 to gn - 1 do
        if Instr.equal a.(k) b.(t) then decline ()
      done
    done;
    delete_upto gn;
    for t = !j to m - 1 do
      items := (if t < gm then Inserted b.(t) else Kept b.(t)) :: !items
    done;
    Array.of_list (List.rev !items)
  end

(* What a step may delete and insert, whatever the analyses say. *)
let check_kind = function
  | Kept i -> if is_phi i then decline ()
  | Deleted { instr; _ } -> (
    match instr with
    | Instr.Store _ | Instr.Call _ | Instr.Alloca _ | Instr.Phi _ -> decline ()
    | Instr.Const _ | Instr.Copy _ | Instr.Unop _ | Instr.Binop _ | Instr.Load _ -> ())
  | Inserted i -> (
    match i with
    | Instr.Const _ | Instr.Unop _ -> ()
    | Instr.Binop { op; _ } -> (
      match op with Op.Div | Op.Rem -> decline () | _ -> ())
    | Instr.Copy _ | Instr.Load _ | Instr.Store _ | Instr.Alloca _ | Instr.Call _
    | Instr.Phi _ ->
      decline ())

(* The output's blocks as aligned items, by block id, and the growth
   factor. Input blocks keep their ids; every new block ends in a jump to
   an input block ([landing]), and output arms reach the input's targets
   through at most one of them. *)
let shape (p : Routine.t) (q : Routine.t) =
  let pc = p.Routine.cfg and qc = q.Routine.cfg in
  let np = Cfg.num_blocks pc and nq = Cfg.num_blocks qc in
  if nq < np then decline ();
  let landing t =
    if t < np then t
    else
      match (Cfg.block qc t).Block.term with
      | Instr.Jump t when t < np && Cfg.mem pc t -> t
      | _ -> decline ()
  in
  let items = Array.make nq [||] in
  for id = 0 to nq - 1 do
    match ((if id < np then Cfg.find_block pc id else None), Cfg.find_block qc id) with
    | None, None -> ()
    | Some pb, Some qb ->
      (match (pb.Block.term, qb.Block.term) with
      | Instr.Jump t, Instr.Jump t' when landing t' = t -> ()
      | Instr.Cbr { cond; ifso; ifnot }, Instr.Cbr { cond = c; ifso = s; ifnot = n }
        when cond = c && landing s = ifso && landing n = ifnot ->
        ()
      | Instr.Ret x, Instr.Ret y when x = y -> ()
      | _ -> decline ());
      items.(id) <- align pb.Block.instrs qb.Block.instrs
    | None, Some qb when id >= np ->
      ignore (landing id);
      items.(id) <- Array.of_list (List.map (fun i -> Inserted i) qb.Block.instrs)
    | _ -> decline ()
  done;
  let pe = Cfg.entry pc and qe = Cfg.entry qc in
  if qe <> pe && (qe < np || landing qe <> pe) then decline ();
  Array.iter (Array.iter check_kind) items;
  let g = Dataflow.graph qc in
  (* Every insertion is paid for by a deletion on the same path, so the
     output runs at most one more operation than the input per landing
     block it passes: one per execution of an input block with an arm to
     a landing block, plus one per activation when the entry is new. *)
  let extra = Array.make np 0 in
  if qe <> pe then extra.(pe) <- 1;
  let growth = ref 1.0 in
  Array.iter
    (fun id ->
      if id < np then begin
        if List.exists (fun t -> t >= np) (Block.succs (Cfg.block qc id)) then
          extra.(id) <- extra.(id) + 1;
        let ops = List.length (Cfg.block pc id).Block.instrs + 1 in
        growth := Float.max !growth (1.0 +. (float_of_int extra.(id) /. float_of_int ops))
      end)
    g.Dataflow.rpo;
  (g, items, !growth)

(* A bit-vector problem over the items of the reachable output blocks.
   [effect] states an item's kills and gens in walk order (kills first);
   [term] the terminator's gens, applied first on a backward walk. *)
type problem = {
  forward : bool;
  meet : Dataflow.meet;
  width : int;
  effect : item -> kill:(int -> unit) -> gen:(int -> unit) -> unit;
  term : Instr.terminator -> gen:(int -> unit) -> unit;
}

let no_term _ ~gen:_ = ()

let walk pb (its : item array) term ~kill ~gen ~at =
  if pb.forward then
    Array.iter
      (fun it ->
        at it;
        pb.effect it ~kill ~gen)
      its
  else begin
    pb.term term ~gen;
    for k = Array.length its - 1 downto 0 do
      at its.(k);
      pb.effect its.(k) ~kill ~gen
    done
  end

(* Solve [pb], then walk each reachable block with an insertion or a
   deletion once more, calling [at item set] with the facts holding just
   before the item in walk order (after it, on a backward walk). *)
let run pb (g : Dataflow.graph) (cfg : Cfg.t) items ~at =
  let n = Array.length items in
  let gen = Array.init n (fun _ -> Bitset.create pb.width) in
  let kill = Array.init n (fun _ -> Bitset.create pb.width) in
  let term id = (Cfg.block cfg id).Block.term in
  Array.iter
    (fun id ->
      let gs = gen.(id) and ks = kill.(id) in
      walk pb items.(id) (term id)
        ~kill:(fun f ->
          Bitset.remove gs f;
          Bitset.add ks f)
        ~gen:(Bitset.add gs) ~at:ignore)
    g.Dataflow.rpo;
  let system =
    { Dataflow.width = pb.width; gen; kill; boundary = Bitset.create pb.width; meet = pb.meet }
  in
  let start =
    if pb.forward then (Dataflow.solve_forward g system).Dataflow.ins
    else (Dataflow.solve_backward g system).Dataflow.outs
  in
  Array.iter
    (fun id ->
      if Array.exists (function Kept _ -> false | Inserted _ | Deleted _ -> true) items.(id)
      then begin
        let set = Bitset.copy start.(id) in
        walk pb items.(id) (term id) ~kill:(Bitset.remove set) ~gen:(Bitset.add set)
          ~at:(fun it -> at it set)
      end)
    g.Dataflow.rpo

(* (register, expression) facts, numbered in order of first sight.
   Expressions compare with [Expr_key.equal], so the two zeros stay
   apart. *)
type facts = { tbl : (Instr.reg * int) list Expr_key.Tbl.t; mutable count : int }

let facts () = { tbl = Expr_key.Tbl.create 16; count = 0 }

let find fs (d, k) =
  match Expr_key.Tbl.find_opt fs.tbl k with Some l -> List.assoc_opt d l | None -> None

let intern fs ((d, k) as dk) =
  if find fs dk = None then begin
    let l = Option.value (Expr_key.Tbl.find_opt fs.tbl k) ~default:[] in
    Expr_key.Tbl.replace fs.tbl k ((d, fs.count) :: l);
    fs.count <- fs.count + 1
  end

(* [by_reg.(r)]: the facts whose register or operands include [r]. *)
let index_by_reg fs nregs =
  let by_reg = Array.make nregs [] in
  let add r f = by_reg.(r) <- f :: by_reg.(r) in
  Expr_key.Tbl.iter
    (fun k l ->
      List.iter
        (fun (d, f) ->
          add d f;
          List.iter (fun r -> add r f) (Expr_key.operands k))
        l)
    fs.tbl;
  by_reg

let iter_reachable (g : Dataflow.graph) items f =
  Array.iter (fun id -> Array.iter f items.(id)) g.Dataflow.rpo

let kills_memory = function
  | Instr.Store _ | Instr.Call _ | Instr.Alloca _ -> true
  | _ -> false

let kill_defs by_reg i ~kill = Option.iter (fun d -> List.iter kill by_reg.(d)) (Instr.def i)

(* An evaluation [d := e] that leaves [d] holding [e]: one that does not
   overwrite its own operand, of an expression identical to itself (a
   NaN constant is not). *)
let evaluation i =
  match (Expr_key.of_instr i, Instr.def i) with
  | Some k, Some d when Expr_key.identical k k && not (List.mem d (Expr_key.operands k)) ->
    Some (d, k)
  | _ -> None

(* Register flags over [0, nregs). *)
let flags nregs = Bytes.make nregs '\000'

let flag f r = Bytes.set f r '\001'

let flagged f r = Bytes.get f r <> '\000'

(* Which deletions are redundant: their (destination, expression) pair
   is available in the output at their site. Availability is killed by
   a redefinition of the destination or an operand, and a load's also by
   stores, calls and allocas. Only instructions defining a deletion's
   destination can generate a fact, so the others are not hashed. *)
let mark_redundant g cfg items nregs =
  let fs = facts () in
  let dsts = flags nregs in
  iter_reachable g items (function
    | Deleted { instr; _ } ->
      Option.iter
        (fun ((d, _) as dk) ->
          intern fs dk;
          flag dsts d)
        (evaluation instr)
    | Kept _ | Inserted _ -> ());
  if fs.count > 0 then begin
    let by_reg = index_by_reg fs nregs in
    let loads = ref [] in
    Expr_key.Tbl.iter
      (fun k l ->
        match k with
        | Expr_key.KLoad _ -> List.iter (fun (_, f) -> loads := f :: !loads) l
        | _ -> ())
      fs.tbl;
    let fact i =
      match Instr.def i with
      | Some d when flagged dsts d -> Option.bind (evaluation i) (find fs)
      | _ -> None
    in
    let effect it ~kill ~gen =
      match it with
      | Kept i | Inserted i ->
        kill_defs by_reg i ~kill;
        if !loads <> [] && kills_memory i then List.iter kill !loads;
        Option.iter gen (fact i)
      | Deleted _ -> ()
    in
    let pb = { forward = true; meet = Dataflow.Inter; width = fs.count; effect; term = no_term } in
    run pb g cfg items ~at:(fun it set ->
        match it with
        | Deleted d -> (
          match fact d.instr with Some f when Bitset.mem set f -> d.redundant <- true | _ -> ())
        | Kept _ | Inserted _ -> ())
  end

let def_of i = match Instr.def i with Some d -> d | None -> decline ()

(* Every insertion and every non-redundant deletion writes a register
   that is dead in M just after it. Liveness in M counts the reads of
   kept instructions, redundant deletions and terminators, not those of
   insertions: an insertion needs its operands only not to fault, which
   [check_down_safe] shows, so one insertion may feed the next. The
   problem ranges over the registers so written, numbered by [slot]. *)
let check_dead g cfg items nregs =
  let slot = Array.make nregs (-1) and width = ref 0 in
  iter_reachable g items (function
    | Inserted i | Deleted { instr = i; redundant = false } ->
      let d = def_of i in
      if slot.(d) < 0 then begin
        slot.(d) <- !width;
        incr width
      end
    | Kept _ | Deleted { redundant = true; _ } -> ());
  if !width > 0 then begin
    let on f r = if slot.(r) >= 0 then f slot.(r) in
    let effect it ~kill ~gen =
      match it with
      | Inserted i -> Option.iter (on kill) (Instr.def i)
      | Kept i | Deleted { instr = i; redundant = true } ->
        Option.iter (on kill) (Instr.def i);
        List.iter (on gen) (Instr.uses i)
      | Deleted { redundant = false; _ } -> ()
    in
    let term t ~gen = List.iter (on gen) (Instr.term_uses t) in
    let pb = { forward = false; meet = Dataflow.Union; width = !width; effect; term } in
    run pb g cfg items ~at:(fun it live ->
        match it with
        | Inserted i | Deleted { instr = i; redundant = false } ->
          if Bitset.mem live slot.(def_of i) then decline ()
        | Kept _ | Deleted { redundant = true; _ } -> ())
  end

(* Every insertion [d := e] is paid for: on every path from it, a
   redundant deletion of [d := e] comes before the output redefines [d]
   or an operand (another insertion of [d := e] included). So the input evaluates [e] there on the operand values the
   insertion read (they are live in M at the deletion), and did not
   fault; and the insertions a path runs map one to one into the
   deletions it skips, so no path gets longer but by its landing
   blocks' jumps. This is lazy code motion's down-safety, counted. Only
   instructions defining an inserted destination can be such a
   deletion, so the others are not hashed. *)
let check_paid g cfg items nregs =
  let fs = facts () in
  let dsts = flags nregs in
  iter_reachable g items (function
    | Inserted i -> (
      match evaluation i with
      | Some ((d, _) as dk) ->
        intern fs dk;
        flag dsts d
      | None -> decline ())
    | Kept _ | Deleted _ -> ());
  if fs.count > 0 then begin
    let by_reg = index_by_reg fs nregs in
    let fact i =
      match Instr.def i with
      | Some d when flagged dsts d -> Option.bind (evaluation i) (find fs)
      | _ -> None
    in
    let effect it ~kill ~gen =
      match it with
      | Kept i | Inserted i -> kill_defs by_reg i ~kill
      | Deleted { instr; redundant = true } -> Option.iter gen (fact instr)
      | Deleted { redundant = false; _ } -> ()
    in
    let pb = { forward = false; meet = Dataflow.Inter; width = fs.count; effect; term = no_term } in
    run pb g cfg items ~at:(fun it paid ->
        match it with
        | Inserted i -> (
          match fact i with Some f when Bitset.mem paid f -> () | _ -> decline ())
        | Kept _ | Deleted _ -> ())
  end

let motion ~before:(p : Routine.t) ~after:(q : Routine.t) =
  attempt (fun () ->
      same_header p q;
      let g, items, growth = shape p q in
      let cfg = q.Routine.cfg in
      let nregs = max p.Routine.next_reg q.Routine.next_reg in
      mark_redundant g cfg items nregs;
      check_dead g cfg items nregs;
      check_paid g cfg items nregs;
      growth)

(* ------------------------------------------------------------------ *)
(* Jump chains                                                        *)

(* The instructions from [l] to the next real branch or return, that
   terminator, and the jumps taken on the way. [fold] also follows a
   conditional branch whose arms reach the same block past blocks that
   only jump, counting the fewer jumps of the two arms. *)
let chain cfg ~fold l =
  let limit = Cfg.num_blocks cfg in
  (* [l] past blocks that only jump, and how many it passed. *)
  let rec skip l hops =
    if hops > limit then decline ();
    match Cfg.block cfg l with
    | { Block.instrs = []; term = Instr.Jump t; _ } -> skip t (hops + 1)
    | _ -> (l, hops)
  in
  let rec go l hops acc =
    if hops > limit then decline ();
    let b = Cfg.block cfg l in
    if List.exists is_phi b.Block.instrs then decline ();
    let acc = if b.Block.instrs = [] then acc else b.Block.instrs :: acc in
    let folded = function
      | Instr.Cbr { ifso; ifnot; _ } when fold ->
        let so, hso = skip ifso 0 and nt, hnt = skip ifnot 0 in
        if so = nt then Some (so, min hso hnt) else None
      | _ -> None
    in
    match b.Block.term with
    | Instr.Jump t -> go t (hops + 1) acc
    | term -> (
      match folded term with
      | Some (t, h) -> go t (hops + 1 + h) acc
      | None -> (List.concat (List.rev acc), term, hops))
  in
  go l 0 []

(* Only the input folds branches: the output must not read a condition
   register the input did not. *)
let jump_chains ~before:(p : Routine.t) ~after:(q : Routine.t) =
  attempt (fun () ->
      same_header p q;
      let seen = Hashtbl.create 16 in
      let growth = ref 0.0 in
      let rec visit = function
        | [] -> ()
        | pair :: rest when Hashtbl.mem seen pair -> visit rest
        | ((lp, lq) as pair) :: rest -> (
          Hashtbl.add seen pair ();
          let ip, tp, hp = chain p.Routine.cfg ~fold:true lp in
          let iq, tq, hq = chain q.Routine.cfg ~fold:false lq in
          if not (List.equal Instr.equal ip iq) then decline ();
          let ops = float_of_int (List.length ip + 1) in
          growth := Float.max !growth ((ops +. float_of_int hq) /. (ops +. float_of_int hp));
          match (tp, tq) with
          | Instr.Ret x, Instr.Ret y when x = y -> visit rest
          | Instr.Cbr { cond; ifso; ifnot }, Instr.Cbr { cond = c; ifso = s; ifnot = n }
            when cond = c ->
            visit ((ifso, s) :: (ifnot, n) :: rest)
          | _ -> decline ())
      in
      visit [ (Cfg.entry p.Routine.cfg, Cfg.entry q.Routine.cfg) ];
      !growth)

(* ------------------------------------------------------------------ *)
(* Value correspondence                                               *)

(* A value number names one value at one point of the two runs side by
   side: registers of either routine with one number there hold one
   value. [none] is no number: nothing is known. Constants are numbered
   below zero by bit pattern ([Value.equal]), and mean the same
   everywhere. At a block entry every other class is named by its least
   live member, input register [r] as [2r] and output register [r] as
   [2r + 1]; a walk numbers what it computes from [2 * nregs] up, and
   none of its numbers outlives it. *)
let none = min_int

module Vtbl = Hashtbl.Make (Value)

type expr = Un of Op.unop * int | Bin of Op.binop * int * int

(* One routine's registers during a walk: a number is current when its
   stamp is the walk's. *)
type side = { num : int array; stamp : int array }

(* An entry state: the numbers of the registers live into a block of
   each routine, in the order [lives] gives them. *)
type state = { vin : int array; vout : int array }

type cx = {
  qc : Cfg.t;
  ins : side;
  outs : side;
  mutable walk : int;  (** the current walk's stamp *)
  mutable fresh : int;  (** the last number the walk made up *)
  consts : int Vtbl.t;
  values : (int, Value.t) Hashtbl.t;  (** constants by number *)
  exprs : (expr, int) Hashtbl.t;  (** the walk's evaluations *)
  live_p : Liveness.t;
  live_q : Liveness.t;
  lives : (int array * int array) option array;  (** [lives], by block *)
}

let get cx s r = if s.stamp.(r) = cx.walk then s.num.(r) else none

let set cx s r n =
  s.stamp.(r) <- cx.walk;
  s.num.(r) <- n

let const_num cx v =
  match Vtbl.find_opt cx.consts v with
  | Some n -> n
  | None ->
    let n = -1 - Vtbl.length cx.consts in
    Vtbl.add cx.consts v n;
    Hashtbl.add cx.values n v;
    n

let const_val cx n = Hashtbl.find cx.values n

let is_const n = n < 0 && n <> none

let fresh cx =
  cx.fresh <- cx.fresh + 1;
  cx.fresh

(* The number of an evaluation: a constant when its operands are and it
   folds ([Op.eval_unop], [Op.eval_binop]: no algebraic identity), the
   number an equal evaluation got earlier in the walk, or a new one. *)
let number cx e =
  let folded =
    try
      match e with
      | Un (op, a) when is_const a -> Some (Op.eval_unop op (const_val cx a))
      | Bin (op, a, b) when is_const a && is_const b ->
        Some (Op.eval_binop op (const_val cx a) (const_val cx b))
      | Un _ | Bin _ -> None
    with Op.Division_by_zero | Value.Type_error _ -> None
  in
  match folded with
  | Some v -> const_num cx v
  | None -> (
    match e with
    | Un (_, a) when a = none -> fresh cx
    | Bin (_, a, b) when a = none || b = none -> fresh cx
    | Un _ | Bin _ -> (
      match Hashtbl.find_opt cx.exprs e with
      | Some n -> n
      | None ->
        let n = fresh cx in
        Hashtbl.add cx.exprs e n;
        n))

(* An output copy reads a register with a number, so one written on
   every path: reading an unwritten register faults. *)
let copied cx s src =
  let n = get cx s src in
  if n = none && s == cx.outs then decline ();
  n

(* An instruction one side runs alone: a copy or a const on either side,
   or an input unop or binop the output dropped (folded or redundant; the
   observed run completed, so it did not fault). *)
let alone cx s = function
  | Instr.Const { dst; value } -> set cx s dst (const_num cx value)
  | Instr.Copy { dst; src } -> set cx s dst (copied cx s src)
  | Instr.Unop { op; dst; src } when s == cx.ins ->
    set cx s dst (number cx (Un (op, get cx s src)))
  | Instr.Binop { op; dst; a; b } when s == cx.ins ->
    set cx s dst (number cx (Bin (op, get cx s a, get cx s b)))
  | _ -> decline ()

let same cx a b =
  let n = get cx cx.ins a in
  n <> none && n = get cx cx.outs b

(* Whether input [i] and output [j] are one operation on the same
   values; if so, both destinations get its number. *)
let matched cx i j =
  let both d d' n =
    set cx cx.ins d n;
    set cx cx.outs d' n;
    true
  in
  match (i, j) with
  | Instr.Unop { op; dst; src }, Instr.Unop { op = op'; dst = d'; src = s' }
    when op = op' && same cx src s' ->
    both dst d' (number cx (Un (op, get cx cx.ins src)))
  | Instr.Binop { op; dst; a; b }, Instr.Binop { op = op'; dst = d'; a = a'; b = b' }
    when op = op' && same cx a a' && same cx b b' ->
    both dst d' (number cx (Bin (op, get cx cx.ins a, get cx cx.ins b)))
  | Instr.Load { dst; addr }, Instr.Load { dst = d'; addr = a' } when same cx addr a' ->
    both dst d' (fresh cx)
  | Instr.Store { addr; src }, Instr.Store { addr = a'; src = s' } ->
    same cx addr a' && same cx src s'
  | Instr.Alloca { dst; words; init }, Instr.Alloca { dst = d'; words = w'; init = i' }
    when words = w' && Value.equal init i' ->
    both dst d' (fresh cx)
  | Instr.Call { dst; callee; args }, Instr.Call { dst = d'; callee = c'; args = a' }
    when String.equal callee c' && List.equal (same cx) args a' ->
    let n = fresh cx in
    Option.iter (fun d -> set cx cx.ins d n) dst;
    Option.iter (fun d -> set cx cx.outs d n) d';
    true
  | _ -> false

(* Run a block's instructions side by side: each output instruction but
   a copy or a const is matched with the next input one it equals, and
   the input ones passed on the way run alone. *)
let rec body cx pi qi =
  match qi with
  | [] -> List.iter (alone cx cx.ins) pi
  | ((Instr.Const _ | Instr.Copy _) as j) :: qi ->
    alone cx cx.outs j;
    body cx pi qi
  | j :: qi ->
    let rec seek = function
      | [] -> decline ()
      | i :: pi ->
        if matched cx i j then pi
        else begin
          alone cx cx.ins i;
          seek pi
        end
    in
    body cx (seek pi) qi

(* Where both runs go next, as (output block, input block) pairs. A
   branch on a constant input condition goes one way. *)
let successors cx (tp : Instr.terminator) (tq : Instr.terminator) =
  match (tp, tq) with
  | Instr.Ret None, Instr.Ret None -> []
  | Instr.Ret (Some x), Instr.Ret (Some y) when same cx x y -> []
  | Instr.Jump t, Instr.Jump t' -> [ (t', t) ]
  | Instr.Cbr { cond; ifso; ifnot }, _ -> (
    let c = get cx cx.ins cond in
    if c = none then decline ();
    let arm so not_ = function
      | Value.I 0 -> not_
      | Value.I _ -> so
      | Value.F _ -> decline ()
    in
    match tq with
    | Instr.Cbr { cond = c'; ifso = s; ifnot = n } when get cx cx.outs c' = c ->
      if is_const c then
        let v = const_val cx c in
        [ (arm s n v, arm ifso ifnot v) ]
      else [ (s, ifso); (n, ifnot) ]
    | Instr.Jump t' when is_const c -> [ (t', arm ifso ifnot (const_val cx c)) ]
    | _ -> decline ())
  | _ -> decline ()

(* The registers live into block [t] of each routine, ascending. *)
let lives cx t =
  match cx.lives.(t) with
  | Some l -> l
  | None ->
    let regs lv = Array.of_list (Bitset.elements (Liveness.live_in lv t)) in
    let l = (regs cx.live_p, regs cx.live_q) in
    cx.lives.(t) <- Some l;
    l

(* The state on entering the pair of blocks [t] after output block [t']:
   [t'] is [t], or a landing block on the edge that holds only copies
   and consts and jumps to [t]. Also the operations the landing block
   runs. *)
let enter cx (t', t) =
  let over, extra =
    if t' = t then ([], 0)
    else
      match Cfg.block cx.qc t' with
      | { Block.instrs; term = Instr.Jump j; _ } when j = t ->
        let num over r =
          match List.assoc_opt r over with Some n -> n | None -> copied cx cx.outs r
        in
        ( List.fold_left
            (fun over -> function
              | Instr.Const { dst; value } -> (dst, const_num cx value) :: over
              | Instr.Copy { dst; src } -> (dst, num over src) :: over
              | _ -> decline ())
            [] instrs,
          List.length instrs + 1 )
      | _ -> decline ()
  in
  let lp, lq = lives cx t in
  let out r = match List.assoc_opt r over with Some n -> n | None -> get cx cx.outs r in
  ({ vin = Array.map (get cx cx.ins) lp; vout = Array.map out lq }, extra)

(* Pairs of numbers, hashed without polymorphic hashing. *)
module Pairs = Hashtbl.Make (struct
  type t = int * int

  let equal (a, b) (c, d) = a = c && b = d

  let hash (a, b) = (a * 65599) + b
end)

(* Partition intersection of two states of block [t], renamed
   canonically: registers share a number when they share one in both,
   and the class is named by its constant when both agree on one, else
   by its least member. The meet of one state is its renaming. *)
let meet2 cx t a b =
  let lp, lq = lives cx t in
  let names = Pairs.create 16 in
  let name x y member =
    if x = none || y = none then none
    else
      match Pairs.find_opt names (x, y) with
      | Some n -> n
      | None ->
        let n = if x = y && is_const x then x else member in
        Pairs.add names (x, y) n;
        n
  in
  let vin = Array.make (Array.length lp) none and vout = Array.make (Array.length lq) none in
  let i = ref 0 and j = ref 0 in
  while !i < Array.length lp || !j < Array.length lq do
    if !j >= Array.length lq || (!i < Array.length lp && lp.(!i) <= lq.(!j)) then begin
      let k = !i in
      vin.(k) <- name a.vin.(k) b.vin.(k) (2 * lp.(k));
      incr i
    end
    else begin
      let k = !j in
      vout.(k) <- name a.vout.(k) b.vout.(k) ((2 * lq.(k)) + 1);
      incr j
    end
  done;
  { vin; vout }

(* The meet of the states coming into block [t]. Partition
   intersection is associative, and a canonical name depends only on
   the class and its constant, so pairwise meets give the n-way one. *)
let meet cx t = function
  | [] -> invalid_arg "meet"
  | s :: rest -> List.fold_left (meet2 cx t) (meet2 cx t s s) rest

(* Value correspondence ([constprop], [coalesce], [gvn]): a forward,
   conditional walk of both routines side by side over pairs of blocks
   with one id, to a fixed point over the pairs whose entry state
   changed.

   Why it is sound. Claim: at every matched point of a run of the input
   and one of the output from the same state, registers with one number
   hold one value. It holds at the entry, where only the parameters have
   numbers. A matched instruction computes one value from equal
   operands, or reads memory both runs left equal (every store, call and
   alloca is matched, in order); a fold is the evaluator's own result;
   copies and consts carry numbers exactly; a meet keeps only what every
   incoming edge gives, and at the fixed point each entry state is the
   meet of the states its incoming edges carry. So both runs take the
   same path (branches test equal values, or a constant), make the same
   calls, stores and emits, and return the same value. The output runs
   no operation the input did not run on the same values but copies of
   registers written on every path and consts, and the input's run
   completed, so the output does not fault; the input operations it
   dropped did not fault either. Its operations per traversal of a
   block are at most [growth] times the input's. *)
let values ~before:(p : Routine.t) ~after:(q : Routine.t) =
  attempt (fun () ->
      same_header p q;
      let pc = p.Routine.cfg and qc = q.Routine.cfg in
      let gp = Dataflow.graph pc and gq = Dataflow.graph qc in
      let nregs = max p.Routine.next_reg q.Routine.next_reg in
      let side () = { num = Array.make nregs none; stamp = Array.make nregs 0 } in
      let nb = Cfg.num_blocks qc in
      let cx =
        { qc; ins = side (); outs = side (); walk = 0; fresh = 0;
          consts = Vtbl.create 8; values = Hashtbl.create 8; exprs = Hashtbl.create 16;
          live_p = Liveness.compute gp p; live_q = Liveness.compute gq q;
          lives = Array.make (max nb (Cfg.num_blocks pc)) None }
      in
      (* Incoming states by block, keyed by source block and arm (the
         routine's entry is source -1). *)
      let incoming = Array.make nb [] and seen = Array.make nb None in
      let pending = Array.make nb false in
      let arrive t key st =
        if t >= nb then decline ();
        if List.assoc_opt key incoming.(t) <> Some st then begin
          incoming.(t) <- (key, st) :: List.remove_assoc key incoming.(t);
          pending.(t) <- true
        end
      in
      let pe = Cfg.entry pc and qe = Cfg.entry qc in
      cx.walk <- 1;
      List.iter
        (fun r ->
          set cx cx.ins r (2 * r);
          set cx cx.outs r (2 * r))
        p.Routine.params;
      let st, entry_extra = enter cx (qe, pe) in
      arrive pe (-1) st;
      (* A walk only refines the states it feeds, so the iteration
         ends; the budget caps what a slow one may cost. *)
      let growth = ref 0.0 and budget = ref ((16 * nb) + 64) in
      let visit id =
        let st = meet cx id (List.map snd incoming.(id)) in
        if seen.(id) <> Some st then begin
          seen.(id) <- Some st;
          decr budget;
          if !budget < 0 then decline ();
          cx.walk <- cx.walk + 1;
          cx.fresh <- 2 * nregs;
          Hashtbl.clear cx.exprs;
          let lp, lq = lives cx id in
          Array.iteri (fun k r -> set cx cx.ins r st.vin.(k)) lp;
          Array.iteri (fun k r -> set cx cx.outs r st.vout.(k)) lq;
          let pb = Cfg.block pc id and qb = Cfg.block qc id in
          body cx pb.Block.instrs qb.Block.instrs;
          (* The output's operations: the block, the landing block it
             leaves by, and for the old entry the new entry block. *)
          let landing = ref 0 in
          List.iteri
            (fun arm ((_, t) as edge) ->
              let st, ops = enter cx edge in
              landing := max !landing ops;
              arrive t ((2 * id) + arm) st)
            (successors cx pb.Block.term qb.Block.term);
          let ops l = List.length l + 1 in
          let out = ops qb.Block.instrs + !landing + if id = pe then entry_extra else 0 in
          growth := Float.max !growth (float_of_int out /. float_of_int (ops pb.Block.instrs))
        end
      in
      let again = ref true in
      while !again do
        again := false;
        Array.iter
          (fun id ->
            if pending.(id) then begin
              pending.(id) <- false;
              again := true;
              visit id
            end)
          gq.Dataflow.rpo
      done;
      !growth)

let table =
  [ ("pre", motion); ("dce", motion); ("clean", jump_chains); ("constprop", values);
    ("coalesce", values); ("gvn", values) ]

let find pass = List.assoc_opt pass table
