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
      since and that are live in M there (and, for a load, with no store,
      call or alloca in between). So the insertion computes a value P
      computed without faulting.
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
    | Instr.Const _ | Instr.Unop _ | Instr.Binop _ | Instr.Load _ -> ()
    | Instr.Copy _ | Instr.Store _ | Instr.Alloca _ | Instr.Call _ | Instr.Phi _ -> decline ())

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
   or an operand (another insertion of [d := e] included). So the input
   evaluates [e] there on the operand values the insertion read (they
   are live in M at the deletion), and did not fault: an inserted
   division or remainder is as safe as any other evaluation. So is a
   load: no store, call or alloca comes in between, since one would
   kill the deletion's availability, and only a redefinition of [d]
   after it could make the deletion redundant again. The insertions a
   path runs map one to one into the deletions it skips, so no path
   gets longer but by its landing blocks' jumps. This is lazy code
   motion's down-safety, counted. Only instructions defining an inserted
   destination can be such a deletion, so the others are not hashed. *)
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

(* An evaluation over value numbers. *)
type 'a expr = 'a Algebra.expr = Un of Op.unop * 'a | Bin of Op.binop * 'a * 'a

(* Evaluations, hashed without polymorphic comparison. Operators are
   constant constructors, so [==] compares them. *)
module Etbl = Hashtbl.Make (struct
  type t = int expr

  let equal a b =
    match (a, b) with
    | Un (o, x), Un (o', x') -> o == o' && x = x'
    | Bin (o, x, y), Bin (o', x', y') -> o == o' && x = x' && y = y'
    | Un _, Bin _ | Bin _, Un _ -> false

  let hash = function
    | Un (o, x) -> (Hashtbl.hash o * 65599) + x
    | Bin (o, x, y) -> (((Hashtbl.hash o * 65599) + x) * 65599) + y
end)

(* Every row of the identity table, rewrite rows or not. *)
let identities = Algebra.index Algebra.rows

(* One routine's registers during a walk: a number is current when its
   stamp is the walk's. *)
type side = { mutable num : int array; mutable stamp : int array }

(* A check's state. Each domain keeps one and reuses its arrays from
   check to check: every slot is stamped, or written before it is read,
   so none is cleared, and a routine with many register names costs no
   large allocation per check. *)
type cx = {
  mutable qc : Cfg.t;
  mutable members : int -> int array;  (** [members] of the current check *)
  ins : side;
  outs : side;
  mutable walk : int;  (** the current walk's stamp; never reset *)
  mutable base : int;  (** [2 * nregs]: the walk numbers what it computes above it *)
  mutable fresh : int;  (** the last number the walk made up *)
  mutable defs : int expr array;  (** by [n - base]: what number [n] was made for *)
  consts : int Vtbl.t;
  mutable values : Value.t array;  (** constants, by [-1 - n] *)
  exprs : int Etbl.t;  (** the walk's evaluations *)
  view : int Algebra.view;  (** numbers as the identity table sees them *)
  mutable depth : int;  (** right sides being numbered *)
  (* The meet's scratch. A pass of the meet stamps each number it sees
     and chains, from the number's slot, the (class, new class) pairs
     seen with it; [lead] and [konst] hold the classes so far. *)
  mutable mstamp : int;
  mutable slot_stamp : int array;
  mutable slot_head : int array;
  mutable e_class : int array;
  mutable e_new : int array;
  mutable e_next : int array;
  mutable e_count : int;
  mutable lead : int array;
  mutable konst : int array;
  mutable live : int array;  (** [members]' scratch *)
}

let get cx s r = if s.stamp.(r) = cx.walk then s.num.(r) else none

let set cx s r n =
  s.stamp.(r) <- cx.walk;
  s.num.(r) <- n

(* [a] widened to hold index [k], new slots [fill]. *)
let widen a k fill =
  if k < Array.length a then a
  else begin
    let b = Array.make (max (k + 1) (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let const_num cx v =
  match Vtbl.find_opt cx.consts v with
  | Some n -> n
  | None ->
    let k = Vtbl.length cx.consts in
    cx.values <- widen cx.values k v;
    cx.values.(k) <- v;
    Vtbl.add cx.consts v (-1 - k);
    -1 - k

let const_val cx n = cx.values.(-1 - n)

let is_const n = n < 0 && n <> none

(* What a number made for no evaluation stands for: its operand is no
   number, so no pattern fits it. *)
let no_def = Un (Op.Not, none)

let fresh cx =
  cx.fresh <- cx.fresh + 1;
  let k = cx.fresh - cx.base in
  cx.defs <- widen cx.defs k no_def;
  cx.defs.(k) <- no_def;
  cx.fresh

(* The evaluation the walk made number [m] for. *)
let def cx m = if m > cx.base && m <= cx.fresh then cx.defs.(m - cx.base) else no_def

(* The number of an evaluation: a constant when its operands are and it
   folds ([Op.eval_unop], [Op.eval_binop]); else that of the right side
   of the first identity row its left side fits, a commutative
   operator's operands taken either way; else the number an equal
   evaluation got earlier in the walk, or a new one. A number so names
   the value of every evaluation given it that completes. Rows rewrite a
   right side again only so deep: ill-typed constants (a [neg] of a
   float does not fold) could cycle. *)
let rec number cx e =
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
    | _ -> (
      match if cx.depth > 3 then None else Algebra.apply cx.view identities e with
      | Some rhs -> build cx rhs
      | None -> (
        match e with
        | Bin (op, a, b) when Op.commutative op && a < b -> intern cx (Bin (op, b, a))
        | Un _ | Bin _ -> intern cx e)))

and build cx = function
  | Algebra.Operand m -> m
  | Algebra.Const v -> const_num cx v
  | Algebra.Eval (Un (op, p)) -> deeper cx (Un (op, build cx p))
  | Algebra.Eval (Bin (op, p, q)) ->
    let a = build cx p in
    let b = build cx q in
    deeper cx (Bin (op, a, b))

and deeper cx e =
  cx.depth <- cx.depth + 1;
  let n = number cx e in
  cx.depth <- cx.depth - 1;
  n

and intern cx e =
  match Etbl.find_opt cx.exprs e with
  | Some n -> n
  | None ->
    let n = fresh cx in
    cx.defs.(n - cx.base) <- e;
    Etbl.add cx.exprs e n;
    n

let result_ty = function
  | Un (op, _) -> Op.unop_result_ty op
  | Bin (op, _, _) -> Op.binop_result_ty op

(* Whether a completed evaluation of [e] read [n] as a [ty], directly or
   through the evaluations [depth] levels down that made its operands. *)
let rec read_as cx depth e n ty =
  let below m = depth > 0 && read_as cx (depth - 1) (def cx m) n ty in
  match e with
  | Un (op, a) -> (a = n && Ty.equal (Op.unop_operand_ty op) ty) || below a
  | Bin (op, a, b) ->
    ((a = n || b = n) && Ty.equal (Op.binop_operand_ty op) ty) || below a || below b

(* Whether [n] holds a [ty] where the input completes [e]: it is a
   constant of that type, the walk made it for an evaluation of that
   type (every register holding it got it from a completed one), or [e]
   reads it as one. *)
let typed cx e n ty =
  n <> none
  && ((is_const n && Ty.equal (Value.ty (const_val cx n)) ty)
     || (def cx n != no_def && Ty.equal (result_ty (def cx n)) ty)
     || read_as cx 1 e n ty)

(* Whether the output's evaluation [e'] cannot fault where the input
   completes [e]: every operand holds its operator's type, and it is no
   integer division or remainder. *)
let safe cx e e' =
  match e' with
  | Un (op, a) -> typed cx e a (Op.unop_operand_ty op)
  | Bin ((Op.Div | Op.Rem), _, _) -> false
  | Bin (op, a, b) ->
    let ty = Op.binop_operand_ty op in
    typed cx e a ty && typed cx e b ty

(* An output copy reads a register with a number, so one written on
   every path: reading an unwritten register faults. *)
let copied cx s src =
  let n = get cx s src in
  if n = none && s == cx.outs then decline ();
  n

(* An instruction one side runs alone: a copy or a const on either side,
   or an input unop or binop the output dropped (folded, rewritten or
   redundant; the observed run completed, so it did not fault). *)
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

let evaluation cx s = function
  | Instr.Unop { op; src; _ } -> Un (op, get cx s src)
  | Instr.Binop { op; a; b; _ } -> Bin (op, get cx s a, get cx s b)
  | _ -> invalid_arg "evaluation"

(* Whether input [i] and output [j] compute one value; if so, both
   destinations get its number. Two unops or binops do when they are one
   operation on the same values, or when their numbers agree modulo the
   identities and the output's cannot fault. *)
let matched cx i j =
  let both d d' n =
    set cx cx.ins d n;
    set cx cx.outs d' n;
    true
  in
  match (i, j) with
  | Instr.Unop { op; dst; src }, Instr.Unop { op = op'; dst = d'; src = s' }
    when op == op' && same cx src s' ->
    both dst d' (number cx (Un (op, get cx cx.ins src)))
  | Instr.Binop { op; dst; a; b }, Instr.Binop { op = op'; dst = d'; a = a'; b = b' }
    when op == op' && same cx a a' && same cx b b' ->
    both dst d' (number cx (Bin (op, get cx cx.ins a, get cx cx.ins b)))
  | ( (Instr.Unop { dst; _ } | Instr.Binop { dst; _ }),
      (Instr.Unop { dst = d'; _ } | Instr.Binop { dst = d'; _ }) ) ->
    let e = evaluation cx cx.ins i and e' = evaluation cx cx.outs j in
    let n = number cx e in
    n = number cx e' && safe cx e e' && both dst d' n
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
   a copy or a const is matched with the next input one it matches, and
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

(* The registers live into block [t] of each routine, input register
   [r] as [2r] and output register [r] as [2r + 1], ascending: the
   positions of a state of [t], which holds a number for each. Built on
   first request, by merging the two routines' ascending runs. *)
let members_of cx live_p live_q nb =
  let cache = Array.make nb None in
  fun t ->
    match cache.(t) with
    | Some m -> m
    | None ->
      let len = ref 0 in
      let add tag r =
        cx.live <- widen cx.live !len 0;
        cx.live.(!len) <- (2 * r) + tag;
        incr len
      in
      Liveness.iter_live_in live_p t (add 0);
      let np = !len in
      Liveness.iter_live_in live_q t (add 1);
      let live = cx.live and i = ref 0 and j = ref np in
      let m =
        Array.init !len (fun _ ->
            if !j >= !len || (!i < np && live.(!i) < live.(!j)) then begin
              incr i;
              live.(!i - 1)
            end
            else begin
              incr j;
              live.(!j - 1)
            end)
      in
      cache.(t) <- Some m;
      m

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
  let mem = cx.members t in
  let st = Array.make (Array.length mem) none in
  for k = 0 to Array.length mem - 1 do
    let r = mem.(k) lsr 1 in
    st.(k) <-
      (if mem.(k) land 1 = 0 then get cx cx.ins r
       else
         match over with
         | [] -> get cx cx.outs r
         | over -> ( match List.assoc_opt r over with Some n -> n | None -> get cx cx.outs r))
  done;
  (st, extra)

let same_state (a : int array) (b : int array) =
  let n = Array.length a in
  let rec from k = k >= n || (a.(k) = b.(k) && from (k + 1)) in
  n = Array.length b && from 0

let rec chained cx c e = if e < 0 || cx.e_class.(e) = c then e else chained cx c cx.e_next.(e)

(* The class, in this pass of the meet, of position [p], of class [c]
   before it and holding [x]: the first position seen with both. *)
let class_of cx x c p =
  let k = if x >= 0 then 2 * x else (-2 * x) - 1 in
  if k >= Array.length cx.slot_stamp then begin
    cx.slot_stamp <- widen cx.slot_stamp k 0;
    cx.slot_head <- widen cx.slot_head k (-1)
  end;
  let head = if cx.slot_stamp.(k) = cx.mstamp then cx.slot_head.(k) else -1 in
  let e = chained cx c head in
  if e >= 0 then cx.e_new.(e)
  else begin
    let e = cx.e_count in
    cx.e_class.(e) <- c;
    cx.e_new.(e) <- p;
    cx.e_next.(e) <- head;
    cx.e_count <- e + 1;
    cx.slot_stamp.(k) <- cx.mstamp;
    cx.slot_head.(k) <- e;
    p
  end

(* The meet of the states coming into block [t]: partition intersection,
   renamed canonically. Positions share a class when they share a
   number in every state; each pass over one state splits the classes
   so far by the numbers it holds, a class keeping the first position
   it has as its leader. A class is named by its constant when every
   state holds that one, else by its leader's member. *)
let meet cx t incoming =
  let mem = cx.members t in
  let n = Array.length mem in
  (* A pass adds at most one entry per position. *)
  cx.lead <- widen cx.lead n 0;
  cx.konst <- widen cx.konst n none;
  cx.e_class <- widen cx.e_class n 0;
  cx.e_new <- widen cx.e_new n 0;
  cx.e_next <- widen cx.e_next n 0;
  let lead = cx.lead and konst = cx.konst in
  let rec passes first = function
    | [] -> ()
    | (_, (s : int array)) :: rest ->
      cx.mstamp <- cx.mstamp + 1;
      cx.e_count <- 0;
      for p = 0 to n - 1 do
        let x = s.(p) in
        let c = if first then 0 else lead.(p) in
        if x = none || c < 0 then lead.(p) <- -1
        else begin
          lead.(p) <- class_of cx x c p;
          konst.(p) <-
            (if first then if is_const x then x else none else if konst.(p) = x then x else none)
        end
      done;
      passes false rest
  in
  passes true incoming;
  let st = Array.make n none in
  for p = 0 to n - 1 do
    let l = lead.(p) in
    if l >= 0 then st.(p) <- (if konst.(p) <> none then konst.(p) else mem.(l))
  done;
  st

let scratch =
  Domain.DLS.new_key (fun () ->
      let side () = { num = [||]; stamp = [||] } in
      let rec cx =
        { qc = Cfg.create (); members = (fun _ -> [||]); ins = side (); outs = side (); walk = 0;
          base = 0; fresh = 0; defs = [||]; consts = Vtbl.create 8; values = [||];
          exprs = Etbl.create 16; view; depth = 0; mstamp = 0; slot_stamp = [||];
          slot_head = [||]; e_class = [||]; e_new = [||]; e_next = [||]; e_count = 0; lead = [||];
          konst = [||]; live = [||] }
      and view =
        { Algebra.const = (fun m -> if is_const m then Some (const_val cx m) else None);
          def = (fun m -> if def cx m == no_def then None else Some (def cx m));
          equal = Int.equal }
      in
      cx)

(* Value correspondence ([constprop], [coalesce], [gvn], [peephole]): a
   forward, conditional walk of both routines side by side over pairs
   of blocks with one id, to a fixed point over the pairs whose entry
   state changed.

   Why it is sound. Claim: at every matched point of a run of the input
   and one of the output from the same state, registers with one number
   hold one value. It holds at the entry, where only the parameters have
   numbers. A number names the value of every evaluation given it that
   completes: a fold is the evaluator's own result; an identity row's
   sides are equal wherever its left side completes, and then its right
   side completes too; other evaluations are hashed by operator and
   operand numbers (a commutative operator's in one order). A matched
   pair of evaluations completes on both sides: the input's because the
   input's run did, the output's because it is the input's operation on
   the same values or, when the pair agrees only modulo the identities,
   because every operand holds the type its operator reads and it is no
   integer division. A matched load reads memory both runs left equal
   (every store, call and alloca is matched, in order); copies and
   consts carry numbers exactly; a meet keeps only what every incoming
   edge gives, and at the fixed point each entry state is the meet of
   the states its incoming edges carry. So both runs take the same path
   (branches test equal values, or a constant), make the same calls,
   stores and emits, and return the same value. The output runs no
   operation the input did not run on the same values but copies of
   registers written on every path, consts and evaluations shown not to
   fault, and the input's run completed, so the output does not fault;
   the input operations it dropped did not fault either.

   Growth. Both runs traverse the same blocks, so the output runs at
   most [growth] times the input's operations when the blocks can be
   grouped so that, in each group, the output's operations over all
   traversals are at most that many times the input's. A block's
   operations per traversal include, in the output, the landing block
   it leaves by. The walk enters a block [B] from one block [P] alone
   (its source; the routine's entry has none) at most once per
   traversal of [P], and the blocks [P] enters alone together no more
   often than [P], as each traversal leaves by one arm. So the sources
   link the blocks into trees, and a tree's traversal counts satisfy
   [t_B <= t_P] and, per [P], [sum t_B <= t_P]. The tree's ratio of
   output to input operations is a ratio of sums over those counts,
   largest at a vertex of these constraints, where the blocks of one
   path down from the root run as often as the root and the others
   never: [growth] is the largest ratio of the sums along a path from a
   root, [(out_P + out_B) / (in_P + in_B)] for a block and its source
   when the source is a root. SSA destruction puts copies into PRE's
   jump-only landing blocks (one input operation), and the blocks
   before pay for them. *)
let values ~before:(p : Routine.t) ~after:(q : Routine.t) =
  attempt (fun () ->
      same_header p q;
      let pc = p.Routine.cfg and qc = q.Routine.cfg in
      let gp = Dataflow.graph pc and gq = Dataflow.graph qc in
      let nregs = max p.Routine.next_reg q.Routine.next_reg in
      let nb = Cfg.num_blocks qc in
      let cx = Domain.DLS.get scratch in
      let size s =
        s.num <- widen s.num (nregs - 1) none;
        s.stamp <- widen s.stamp (nregs - 1) 0
      in
      size cx.ins;
      size cx.outs;
      cx.qc <- qc;
      cx.members <-
        members_of cx (Liveness.compute gp p) (Liveness.compute gq q)
          (max nb (Cfg.num_blocks pc));
      cx.base <- 2 * nregs;
      cx.depth <- 0;
      Vtbl.clear cx.consts;
      (* Incoming states by block, keyed by source block and arm (the
         routine's entry is source -1). *)
      let incoming = Array.make nb [] and seen = Array.make nb None in
      let pending = Array.make nb false in
      let arrive t key st =
        if t >= nb then decline ();
        let rec changed = function
          | [] -> true
          | (k, s) :: rest -> if k = key then not (same_state s st) else changed rest
        in
        if changed incoming.(t) then begin
          incoming.(t) <- (key, st) :: List.filter (fun (k, _) -> k <> key) incoming.(t);
          pending.(t) <- true
        end
      in
      let pe = Cfg.entry pc and qe = Cfg.entry qc in
      cx.walk <- cx.walk + 1;
      List.iter
        (fun r ->
          set cx cx.ins r (2 * r);
          set cx cx.outs r (2 * r))
        p.Routine.params;
      let st, entry_extra = enter cx (qe, pe) in
      arrive pe (-1) st;
      (* Operations per traversal of each walked block: the output's
         most (with the landing block it leaves by, and for the old
         entry the new entry block), and the input's. *)
      let out_ops = Array.make nb 0 and in_ops = Array.make nb 0 in
      (* A walk only refines the states it feeds, so the iteration
         ends; the budget caps what a slow one may cost. *)
      let budget = ref ((16 * nb) + 64) in
      let visit id =
        let st = meet cx id incoming.(id) in
        if not (match seen.(id) with Some s -> same_state s st | None -> false) then begin
          seen.(id) <- Some st;
          decr budget;
          if !budget < 0 then decline ();
          cx.walk <- cx.walk + 1;
          cx.fresh <- cx.base;
          Etbl.clear cx.exprs;
          let mem = cx.members id in
          for k = 0 to Array.length mem - 1 do
            set cx (if mem.(k) land 1 = 0 then cx.ins else cx.outs) (mem.(k) lsr 1) st.(k)
          done;
          let pb = Cfg.block pc id and qb = Cfg.block qc id in
          body cx pb.Block.instrs qb.Block.instrs;
          let landing = ref 0 in
          List.iteri
            (fun arm ((_, t) as edge) ->
              let st, ops = enter cx edge in
              landing := max !landing ops;
              arrive t ((2 * id) + arm) st)
            (successors cx pb.Block.term qb.Block.term);
          let ops l = List.length l + 1 in
          let out = ops qb.Block.instrs + !landing + if id = pe then entry_extra else 0 in
          out_ops.(id) <- max out_ops.(id) out;
          in_ops.(id) <- ops pb.Block.instrs
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
      (* The block whose traversals alone enter [id], if any. *)
      let source id =
        match incoming.(id) with
        | (k, _) :: rest
          when id <> pe && k >= 0 && k lsr 1 <> id
               && List.for_all (fun (k', _) -> k' lsr 1 = k lsr 1) rest ->
          k lsr 1
        | _ -> -1
      in
      (* The operations of each walked block and of the blocks on its
         chain of sources, of both routines. *)
      let chain_out = Array.make nb (-1) and chain_in = Array.make nb 0 in
      let rec chain id hops =
        if chain_out.(id) < 0 then begin
          if hops > nb then decline ();
          let s = source id in
          if s >= 0 then chain s (hops + 1);
          chain_out.(id) <- out_ops.(id) + if s >= 0 then chain_out.(s) else 0;
          chain_in.(id) <- in_ops.(id) + if s >= 0 then chain_in.(s) else 0
        end
      in
      Array.fold_left
        (fun growth id ->
          if in_ops.(id) = 0 then growth
          else begin
            chain id 0;
            Float.max growth (float_of_int chain_out.(id) /. float_of_int chain_in.(id))
          end)
        0.0 gq.Dataflow.rpo)
