(** The graph view every read-only CFG analysis takes, and the iterative
    bit-vector data-flow solver that runs on it.

    A [graph] is the reachable part of a rooted graph as arrays, built
    once and shared by every analysis of an unchanged graph: dominators
    (and postdominators, on the reverse view), liveness, natural loops and
    the gen/kill systems below. [iterate] drives every fixed point here —
    available expressions, anticipability, definite assignment, PRE's
    LATERIN system, liveness — with reverse postorder (forward problems)
    or postorder (backward problems) sweeps that visit every reachable
    block once, then only blocks whose sources changed, until none is
    pending: the discipline of the paper's per-pass data-flow analyses.
    The gen/kill solves update their sets in place: each allocates its
    result, one scratch set and one pending flag per block, and nothing
    per visit. *)

open Epre_util
open Epre_ir

type graph = {
  order : Order.t;
  rpo : int array;
  po : int array;
  preds : int array array;
  succs : int array array;
  entry : int;
}

let view ~n ~root next =
  let order = Order.of_succs ~n ~root next in
  let po = Order.postorder order in
  let succs = Array.make n [||] in
  Array.iter (fun id -> succs.(id) <- Array.of_list (next id)) po;
  (* Sources in descending order, each prepended: ascending lists. *)
  let preds = Array.make n [] in
  for id = n - 1 downto 0 do
    Array.iter (fun s -> preds.(s) <- id :: preds.(s)) succs.(id)
  done;
  { order; rpo = Order.reverse_postorder order; po; preds = Array.map Array.of_list preds;
    succs; entry = root }

let graph cfg = view ~n:(Cfg.num_blocks cfg) ~root:(Cfg.entry cfg) (Cfg.succs cfg)

type meet = Union | Inter

type system = {
  width : int;  (** number of data-flow facts *)
  gen : Bitset.t array;  (** by block id: facts generated *)
  kill : Bitset.t array;  (** by block id: facts killed *)
  boundary : Bitset.t;
      (** value at the graph boundary: IN of the entry for forward problems,
          OUT of each exit for backward problems *)
  meet : meet;
}

type result = { ins : Bitset.t array; outs : Bitset.t array }

let init_sets g sys =
  Array.init (Array.length g.preds) (fun id ->
      if not (Order.is_reachable g.order id) then Bitset.create sys.width
      else match sys.meet with Union -> Bitset.create sys.width | Inter -> Bitset.full sys.width)

(* [dst] := the meet of [sets] over [sources], or [sys.boundary] when
   there are none. *)
let meet_into sys ~dst sets sources =
  let n = Array.length sources in
  if n = 0 then Bitset.assign ~dst sys.boundary
  else begin
    Bitset.assign ~dst sets.(sources.(0));
    for k = 1 to n - 1 do
      match sys.meet with
      | Union -> Bitset.union_into ~dst sets.(sources.(k))
      | Inter -> Bitset.inter_into ~dst sets.(sources.(k))
    done
  end

(* [output] := gen ∪ ([input] \ kill), computed in [scratch]; returns
   whether [output] changed. *)
let apply_transfer sys ~scratch ~input ~output id =
  Bitset.assign ~dst:scratch input;
  Bitset.diff_into ~dst:scratch sys.kill.(id);
  Bitset.union_into ~dst:scratch sys.gen.(id);
  if Bitset.equal scratch output then false
  else begin
    Bitset.assign ~dst:output scratch;
    true
  end

let iterate g ~forward visit =
  let visit_order, dependents = if forward then (g.rpo, g.succs) else (g.po, g.preds) in
  let pending = Array.make (Array.length g.preds) false in
  Array.iter (fun id -> pending.(id) <- true) visit_order;
  let count = ref (Array.length visit_order) in
  while !count > 0 do
    Array.iter
      (fun id ->
        if pending.(id) then begin
          pending.(id) <- false;
          decr count;
          if visit id then
            Array.iter
              (fun d ->
                if not pending.(d) then begin
                  pending.(d) <- true;
                  incr count
                end)
              dependents.(id)
        end)
      visit_order
  done

(* The [xfer_sets] of [sources.(id)] meet into [meet_sets.(id)] (the
   [boundary_block] meets none, taking the boundary); the transfer then
   maps [meet_sets.(id)] to [xfer_sets.(id)]. *)
let solve g sys ~forward ~boundary_block ~sources ~meet_sets ~xfer_sets =
  let scratch = Bitset.create sys.width in
  iterate g ~forward (fun id ->
      meet_into sys ~dst:meet_sets.(id) xfer_sets
        (if id = boundary_block then [||] else sources.(id));
      apply_transfer sys ~scratch ~input:meet_sets.(id) ~output:xfer_sets.(id) id)

let solve_forward g sys =
  let ins = init_sets g sys and outs = init_sets g sys in
  (* The entry takes the boundary; other blocks meet their reachable
     predecessors. *)
  solve g sys ~forward:true ~boundary_block:g.entry ~sources:g.preds ~meet_sets:ins
    ~xfer_sets:outs;
  { ins; outs }

let solve_backward g sys =
  let ins = init_sets g sys and outs = init_sets g sys in
  solve g sys ~forward:false ~boundary_block:(-1) ~sources:g.succs ~meet_sets:outs
    ~xfer_sets:ins;
  { ins; outs }
