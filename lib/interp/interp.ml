(** Direct ILOC interpreter.

    Stands in for the paper's instrumented ILOC-to-C back end: it executes a
    program and accumulates dynamic operation counts (see [Counts]). Works
    on both SSA and non-SSA routines — phi nodes are evaluated with
    parallel-copy semantics using the edge the control transfer arrived on —
    so optimized and unoptimized code can be differentially tested at every
    pipeline stage.

    The machine model: an unbounded word-addressed memory of tagged values
    with a bump stack for [Alloca], one register frame per activation, and
    an [emit] intrinsic that appends to an output trace (the observable
    behaviour checked by the test suite, alongside the returned value).

    Each [run] lowers a routine once, on its first call, into flat form: a
    block array indexed by block id, each block's non-phi body as an
    array, callees resolved to routine indices ([emit] and unknown names
    are cases of their own), and each terminator edge's phi moves as a
    precomputed parallel copy. Nothing is cached across runs. A frame's
    registers are typed and unboxed: an [int array], a [float array] and a
    tag byte per register (undefined, int or float). Int-by-int and
    float-by-float binops, constants, copies and branches run on the
    unboxed values; memory holds [Value.t]s, and every other case (mixed
    operand types, a zero divisor, unops, loads, stores, calls) goes
    through [Value.t] and [Op.eval_binop]/[Op.eval_unop], so errors and
    their precedence are the evaluator's. *)

open Epre_ir

exception Runtime_error of string

exception Out_of_fuel

let error fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

type result = {
  return_value : Value.t option;
  counts : Counts.t;
  trace : Value.t list;  (** [emit] outputs, in order *)
}

let default_fuel = 200_000_000

(* --- lowered form -------------------------------------------------------- *)

type callee = Routine of int | Emit | Unknown

type instr =
  | Const of { dst : int; value : Value.t }
  | Copy of { dst : int; src : int }
  | Unop of { op : Op.unop; dst : int; src : int }
  | Binop of { op : Op.binop; dst : int; a : int; b : int }
  | Load of { dst : int; addr : int }
  | Store of { addr : int; src : int }
  | Alloca of { dst : int; words : int; init : Value.t }
  | Call of { dst : int option; name : string; callee : callee; args : int list }

(* One phi of the target block, seen from one edge: the register it reads
   along that edge, or no entry for the edge's source. *)
type move = Move of { dst : int; src : int } | No_entry

(* A control transfer [from -> target] (from = -1 into the entry block)
   with the target's phis as a parallel copy, in list order. *)
type edge = { from : int; target : int; moves : move array }

type term =
  | Jump of edge
  | Cbr of { cond : int; ifso : edge; ifnot : edge }
  | Ret of int option

type block = { body : instr array; term : term }

type routine = {
  name : string;
  params : int list;
  nregs : int;  (** register file size *)
  blocks : block option array;  (** indexed by block id; [None] for holes *)
  entry : edge;
  mutable idle : frame list;  (** frames of returned activations, for reuse *)
}

(* One activation. A register never written is undefined, and reading it
   is a hard error — exactly the bug an optimizer pass would want to hear
   about. The three arrays have one length, so once [Bytes.get] has
   bounds-checked a register the value arrays need no second check; a
   register past [next_reg] fails that check, with OCaml's own
   "index out of bounds". *)
and frame = { lr : routine; tags : Bytes.t; ints : int array; flts : float array }

let lower_edge cfg ~from target =
  let moves =
    match Cfg.find_block cfg target with
    | None -> [||]
    | Some b ->
      Array.of_list
        (List.map
           (function
             | Instr.Phi { dst; args } -> begin
               match List.assoc_opt from args with
               | Some src -> Move { dst; src }
               | None -> No_entry
             end
             | _ -> assert false)
           (Block.phis b))
  in
  { from; target; moves }

let lower_instr ~resolve = function
  | Instr.Const { dst; value } -> Const { dst; value }
  | Instr.Copy { dst; src } -> Copy { dst; src }
  | Instr.Unop { op; dst; src } -> Unop { op; dst; src }
  | Instr.Binop { op; dst; a; b } -> Binop { op; dst; a; b }
  | Instr.Load { dst; addr } -> Load { dst; addr }
  | Instr.Store { addr; src } -> Store { addr; src }
  | Instr.Alloca { dst; words; init } -> Alloca { dst; words; init }
  | Instr.Call { dst; callee; args } -> Call { dst; name = callee; callee = resolve callee; args }
  | Instr.Phi _ -> assert false

let lower ~resolve (r : Routine.t) =
  let cfg = r.Routine.cfg in
  let block (b : Block.t) =
    let id = b.Block.id in
    let term =
      match b.Block.term with
      | Instr.Jump l -> Jump (lower_edge cfg ~from:id l)
      | Instr.Cbr { cond; ifso; ifnot } ->
        Cbr { cond; ifso = lower_edge cfg ~from:id ifso; ifnot = lower_edge cfg ~from:id ifnot }
      | Instr.Ret r -> Ret r
    in
    { body = Array.of_list (List.map (lower_instr ~resolve) (Block.non_phis b)); term }
  in
  { name = r.Routine.name;
    params = r.Routine.params;
    nregs = max 1 r.Routine.next_reg;
    blocks = Array.init (Cfg.num_blocks cfg) (fun id -> Option.map block (Cfg.find_block cfg id));
    entry = lower_edge cfg ~from:(-1) (Cfg.entry cfg);
    idle = [] }

(* --- machine ------------------------------------------------------------- *)

type machine = {
  source : Routine.t array;  (** the program's routines, in order *)
  lowered : routine option array;  (** lowered on first call *)
  mutable mem : Value.t array;
  mutable sp : int;  (** next free memory word *)
  counts : Counts.t;
  mutable trace : Value.t list;  (** reversed [emit] output *)
  mutable fuel : int;
  (* Phi moves read every source here before writing any destination. *)
  mutable move_tags : Bytes.t;
  mutable move_ints : int array;
  mutable move_flts : float array;
}

(* Program.find's rule: the first routine of that name. *)
let find_index m name =
  let n = Array.length m.source in
  let rec go i =
    if i = n then None else if m.source.(i).Routine.name = name then Some i else go (i + 1)
  in
  go 0

let resolve m = function
  | "emit" -> Emit
  | name -> ( match find_index m name with Some i -> Routine i | None -> Unknown)

let lowered m i =
  match m.lowered.(i) with
  | Some lr -> lr
  | None ->
    let lr = lower ~resolve:(resolve m) m.source.(i) in
    m.lowered.(i) <- Some lr;
    lr

let grow_mem m needed =
  if needed > Array.length m.mem then begin
    let cap = max needed (max 1024 (2 * Array.length m.mem)) in
    let mem = Array.make cap (Value.I 0) in
    Array.blit m.mem 0 mem 0 (Array.length m.mem);
    m.mem <- mem
  end

let read_mem m addr =
  if addr < 0 || addr >= m.sp then error "load from unallocated address %d" addr;
  m.mem.(addr)

let write_mem m addr v =
  if addr < 0 || addr >= m.sp then error "store to unallocated address %d" addr;
  m.mem.(addr) <- v

let alloca m words init =
  if words < 0 then error "alloca of negative size %d" words;
  let base = m.sp in
  grow_mem m (m.sp + words);
  (* Fill with the element type's zero so reads before writes are both
     deterministic and well-typed. *)
  Array.fill m.mem base words init;
  m.sp <- m.sp + words;
  base

let[@inline] burn m =
  let fuel = m.fuel - 1 in
  m.fuel <- fuel;
  if fuel < 0 then raise Out_of_fuel

(* --- registers ------------------------------------------------------------ *)

let undef = '\000'

let tint = '\001'

let tflt = '\002'

let undefined fr r = error "%s: read of undefined register r%d" fr.lr.name r

let[@inline] set_int fr r v =
  Bytes.set fr.tags r tint;
  Array.unsafe_set fr.ints r v

let[@inline] set_flt fr r v =
  Bytes.set fr.tags r tflt;
  Array.unsafe_set fr.flts r v

(* The boxed views, for the slow paths. *)
let get fr r =
  let t = Bytes.get fr.tags r in
  if t = tint then Value.I (Array.unsafe_get fr.ints r)
  else if t = tflt then Value.F (Array.unsafe_get fr.flts r)
  else undefined fr r

let[@inline] set fr r = function Value.I v -> set_int fr r v | Value.F v -> set_flt fr r v

let[@inline] get_int fr r =
  if Bytes.get fr.tags r = tint then Array.unsafe_get fr.ints r else Value.to_int (get fr r)

(* --- execution -------------------------------------------------------------- *)

let eval_unop fr op src =
  try Op.eval_unop op (get fr src) with
  | Value.Type_error msg -> error "%s: %s in %s" fr.lr.name msg (Op.unop_name op)

(* [b] is read before [a]. *)
let slow_binop fr op dst a b =
  let vb = get fr b in
  let va = get fr a in
  set fr dst
    (try Op.eval_binop op va vb with
    | Value.Type_error msg -> error "%s: %s in %s" fr.lr.name msg (Op.binop_name op)
    | Op.Division_by_zero -> error "%s: division by zero" fr.lr.name)

let bool_int b = if b then 1 else 0

(* The fast paths read their operands inside this one function: without
   flambda, a float passed to a function that is not inlined is boxed.
   [b]'s tag is read first, and [a]'s only once [b] is defined, so the
   fast path raises what the slow path would. *)
let[@inline] binop fr op dst a b =
  let tb = Bytes.get fr.tags b in
  if tb = tint && Bytes.get fr.tags a = tint then begin
    let x = Array.unsafe_get fr.ints a and y = Array.unsafe_get fr.ints b in
    match (op : Op.binop) with
    | Add -> set_int fr dst (x + y)
    | Sub -> set_int fr dst (x - y)
    | Mul -> set_int fr dst (x * y)
    | Div when y <> 0 -> set_int fr dst (x / y)
    | Rem when y <> 0 -> set_int fr dst (x mod y)
    | And -> set_int fr dst (x land y)
    | Or -> set_int fr dst (x lor y)
    | Xor -> set_int fr dst (x lxor y)
    | Shl -> set_int fr dst (x lsl y)
    | Shr -> set_int fr dst (x asr y)
    | Min -> set_int fr dst (if x <= y then x else y)
    | Max -> set_int fr dst (if x >= y then x else y)
    | Eq -> set_int fr dst (bool_int (x = y))
    | Ne -> set_int fr dst (bool_int (x <> y))
    | Lt -> set_int fr dst (bool_int (x < y))
    | Le -> set_int fr dst (bool_int (x <= y))
    | Gt -> set_int fr dst (bool_int (x > y))
    | Ge -> set_int fr dst (bool_int (x >= y))
    | Div | Rem | FAdd | FSub | FMul | FDiv | FMin | FMax
    | FEq | FNe | FLt | FLe | FGt | FGe -> slow_binop fr op dst a b
  end
  else if tb = tflt && Bytes.get fr.tags a = tflt then begin
    let x = Array.unsafe_get fr.flts a and y = Array.unsafe_get fr.flts b in
    match (op : Op.binop) with
    | FAdd -> set_flt fr dst (x +. y)
    | FSub -> set_flt fr dst (x -. y)
    | FMul -> set_flt fr dst (x *. y)
    | FDiv -> set_flt fr dst (x /. y)
    | FMin -> set_flt fr dst (Float.min_num x y)
    | FMax -> set_flt fr dst (Float.max_num x y)
    | FEq -> set_int fr dst (bool_int (x = y))
    | FNe -> set_int fr dst (bool_int (x <> y))
    | FLt -> set_int fr dst (bool_int (x < y))
    | FLe -> set_int fr dst (bool_int (x <= y))
    | FGt -> set_int fr dst (bool_int (x > y))
    | FGe -> set_int fr dst (bool_int (x >= y))
    | Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Min | Max
    | Eq | Ne | Lt | Le | Gt | Ge -> slow_binop fr op dst a b
  end
  else slow_binop fr op dst a b

let ensure_move_scratch m n =
  if n > Bytes.length m.move_tags then begin
    m.move_tags <- Bytes.make n undef;
    m.move_ints <- Array.make n 0;
    m.move_flts <- Array.make n 0.0
  end

(* Parallel copy: every source is read (in list order, a missing entry
   failing in its place) before any destination is written; each write
   then burns one unit of fuel. *)
let phi_moves m fr e =
  let moves = e.moves in
  let n = Array.length moves in
  ensure_move_scratch m n;
  for i = 0 to n - 1 do
    match moves.(i) with
    | Move { src; _ } ->
      let t = Bytes.get fr.tags src in
      if t = tint then m.move_ints.(i) <- Array.unsafe_get fr.ints src
      else if t = tflt then m.move_flts.(i) <- Array.unsafe_get fr.flts src
      else undefined fr src;
      Bytes.set m.move_tags i t
    | No_entry ->
      error "%s: phi in B%d has no entry for predecessor B%d" fr.lr.name e.target e.from
  done;
  for i = 0 to n - 1 do
    match moves.(i) with
    | Move { dst; _ } ->
      m.counts.Counts.phis <- m.counts.Counts.phis + 1;
      burn m;
      if Bytes.get m.move_tags i = tint then set_int fr dst m.move_ints.(i)
      else set_flt fr dst m.move_flts.(i)
    | No_entry -> assert false
  done

let rec call m i args =
  let lr = lowered m i in
  let nparams = List.length lr.params in
  if List.length args <> nparams then
    error "%s: expected %d arguments, got %d" lr.name nparams (List.length args);
  let fr =
    match lr.idle with
    | fr :: rest ->
      lr.idle <- rest;
      Bytes.fill fr.tags 0 lr.nregs undef;
      fr
    | [] ->
      { lr; tags = Bytes.make lr.nregs undef; ints = Array.make lr.nregs 0;
        flts = Array.make lr.nregs 0.0 }
  in
  List.iter2 (set fr) lr.params args;
  let saved_sp = m.sp in
  let result = enter m fr lr.entry in
  (* Pop this activation's allocas and keep its frame. *)
  m.sp <- saved_sp;
  lr.idle <- fr :: lr.idle;
  result

and enter m fr e =
  let blocks = fr.lr.blocks in
  let b =
    match if e.target >= 0 && e.target < Array.length blocks then blocks.(e.target) else None with
    | Some b -> b
    | None -> invalid_arg (Printf.sprintf "Cfg.block: no block %d" e.target)
  in
  if Array.length e.moves > 0 then phi_moves m fr e;
  let body = b.body in
  let c = m.counts in
  for i = 0 to Array.length body - 1 do
    burn m;
    match Array.unsafe_get body i with
    | Const { dst; value } ->
      c.Counts.consts <- c.Counts.consts + 1;
      set fr dst value
    | Copy { dst; src } ->
      c.Counts.copies <- c.Counts.copies + 1;
      let t = Bytes.get fr.tags src in
      if t = tint then set_int fr dst (Array.unsafe_get fr.ints src)
      else if t = tflt then set_flt fr dst (Array.unsafe_get fr.flts src)
      else undefined fr src
    | Unop { op; dst; src } ->
      c.Counts.arith <- c.Counts.arith + 1;
      set fr dst (eval_unop fr op src)
    | Binop { op; dst; a; b } ->
      c.Counts.arith <- c.Counts.arith + 1;
      (match op with
      | Op.Mul | Op.FMul | Op.Div | Op.FDiv -> c.Counts.mults <- c.Counts.mults + 1
      | _ -> ());
      binop fr op dst a b
    | Load { dst; addr } ->
      c.Counts.loads <- c.Counts.loads + 1;
      set fr dst (read_mem m (get_int fr addr))
    | Store { addr; src } ->
      c.Counts.stores <- c.Counts.stores + 1;
      let v = get fr src in
      write_mem m (get_int fr addr) v
    | Alloca { dst; words; init } ->
      c.Counts.allocas <- c.Counts.allocas + 1;
      set_int fr dst (alloca m words init)
    | Call { dst; name; callee; args } -> begin
      c.Counts.calls <- c.Counts.calls + 1;
      let args = List.map (get fr) args in
      let result =
        match callee with
        | Emit -> begin
          match args with
          | [ v ] ->
            m.trace <- v :: m.trace;
            Some v
          | _ -> error "emit expects one argument"
        end
        | Unknown -> error "call to unknown routine %s" name
        | Routine i -> call m i args
      in
      match (dst, result) with
      | None, _ -> ()
      | Some d, Some v -> set fr d v
      | Some _, None -> error "%s: call to %s expected a return value" fr.lr.name name
    end
  done;
  c.Counts.branches <- c.Counts.branches + 1;
  burn m;
  match b.term with
  | Jump e -> enter m fr e
  | Cbr { cond; ifso; ifnot } -> enter m fr (if get_int fr cond <> 0 then ifso else ifnot)
  | Ret None -> None
  | Ret (Some r) -> Some (get fr r)

let run ?(fuel = default_fuel) program ~entry ~args =
  let source = Array.of_list (Program.routines program) in
  let m =
    { source; lowered = Array.make (Array.length source) None;
      mem = Array.make 1024 (Value.I 0); sp = 0; counts = Counts.create (); trace = [];
      fuel; move_tags = Bytes.empty; move_ints = [||]; move_flts = [||] }
  in
  match find_index m entry with
  | None -> error "no routine named %s" entry
  | Some i ->
    let return_value = call m i args in
    { return_value; counts = m.counts; trace = List.rev m.trace }
