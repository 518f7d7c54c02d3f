(** Per-block register liveness, SSA-aware.

    A phi's arguments are uses at the end of the corresponding predecessor
    (not at the phi's own block), and a phi's destination is born at the top
    of its block — the standard SSA liveness convention. The pruned-SSA
    construction uses [live_into] to avoid placing dead phis; the coalescing
    pass builds its interference relation from [live_out]. A backward
    client of [Dataflow.iterate]: liveness has a unique least fixed
    point, so the sweep order cannot change the sets.

    The solve is over the non-local registers of semi-pruned SSA (Briggs
    et al.): those upward-exposed in some block, plus those a phi reads.
    Every set is a subset of them — LIVEIN(b) = UE(b) ∪ (LIVEOUT(b) \ DEF(b))
    and LIVEOUT(b) = PHIIN(b) ∪ ⋃ (LIVEIN(s) \ PHIDEF(s)), starting from
    empty sets — so the solve runs on sets over a dense renumbering of
    them ([Bitset.index]), a tenth of a routine's registers or fewer, and
    is widened to registers only on request. No array here is as long as
    the register count (bit sets are a 63rd of it): once passes have
    renamed a routine its register numbers are sparse, and a
    register-wide array costs about as much as the solve. *)

open Epre_util
open Epre_ir

(* A role's sets over dense indices sit in one int array, [w] words per
   block: block [id]'s set is words [id * w .. id * w + w - 1]. One
   allocation per role, and a solve step that allocates nothing. *)
type t = {
  nregs : int;
  regs : int array;  (** dense index -> register, ascending *)
  w : int;  (** words per set *)
  ins : int array;
  outs : int array;
  def_blocks : int list array;  (** by dense index, descending block ids *)
  wide_in : Bitset.t option array;  (** by block id, built on request *)
  wide_out : Bitset.t option array;
}

let bpw = 63

let mem sets w id k = (sets.((id * w) + (k / bpw)) lsr (k mod bpw)) land 1 <> 0

let add sets w id k =
  let j = (id * w) + (k / bpw) in
  sets.(j) <- sets.(j) lor (1 lsl (k mod bpw))

let compute (g : Dataflow.graph) (r : Routine.t) =
  let cfg = r.Routine.cfg in
  let n = Cfg.num_blocks cfg in
  let width = r.Routine.next_reg in
  (* One walk: by block, the registers defined (phis included) and
     upward-exposed (a register once for each use the block reads before
     defining it), those phis define, and those phis read along the edges
     out of it. [seen_def] holds the current block's definitions so far
     and is emptied after it. *)
  let seen_def = Bitset.create width in
  let nonlocal = Bitset.create width in
  let def_lists = Array.make n [] and upexposed_lists = Array.make n [] in
  let phi_def_lists = Array.make n [] and phi_in_lists = Array.make n [] in
  Cfg.iter_blocks
    (fun b ->
      let id = b.Block.id in
      let dl = ref [] and ul = ref [] in
      let def x =
        if not (Bitset.mem seen_def x) then begin
          Bitset.add seen_def x;
          dl := x :: !dl
        end
      in
      let use x = if not (Bitset.mem seen_def x) then ul := x :: !ul in
      List.iter
        (function
          | Instr.Const { dst; _ } | Instr.Alloca { dst; _ } -> def dst
          | Instr.Copy { dst; src } | Instr.Unop { dst; src; _ } ->
            use src;
            def dst
          | Instr.Binop { dst; a; b; _ } ->
            use a;
            use b;
            def dst
          | Instr.Load { dst; addr } ->
            use addr;
            def dst
          | Instr.Store { addr; src } ->
            use addr;
            use src
          | Instr.Call { dst; args; _ } -> (
            List.iter use args;
            match dst with Some x -> def x | None -> ())
          | Instr.Phi { dst; args } ->
            def dst;
            phi_def_lists.(id) <- dst :: phi_def_lists.(id);
            List.iter
              (fun (p, src) ->
                if Cfg.mem cfg p then begin
                  Bitset.add nonlocal src;
                  phi_in_lists.(p) <- src :: phi_in_lists.(p)
                end)
              args)
        b.Block.instrs;
      (match b.Block.term with
      | Instr.Cbr { cond = x; _ } | Instr.Ret (Some x) -> use x
      | Instr.Jump _ | Instr.Ret None -> ());
      List.iter (Bitset.remove seen_def) !dl;
      List.iter (Bitset.add nonlocal) !ul;
      def_lists.(id) <- !dl;
      upexposed_lists.(id) <- !ul)
    cfg;
  let ix = Bitset.index nonlocal in
  let m = Bitset.index_size ix in
  let w = (m + bpw - 1) / bpw in
  let regs = Array.make m 0 in
  Bitset.iter (fun v -> regs.(Bitset.rank ix v) <- v) nonlocal;
  (* The lists by block, as rows over dense indices; [def_blocks] from
     the definitions. Upward-exposed registers and phi reads are
     non-local by definition. *)
  let def_blocks = Array.make m [] in
  let rows () = Array.make (n * w) 0 in
  let defs = rows () and upexposed = rows () and phi_defs = rows () and phi_in = rows () in
  for id = 0 to n - 1 do
    List.iter
      (fun v ->
        let k = Bitset.rank ix v in
        if k >= 0 then begin
          add defs w id k;
          def_blocks.(k) <- id :: def_blocks.(k)
        end)
      def_lists.(id);
    List.iter (fun v -> add upexposed w id (Bitset.rank ix v)) upexposed_lists.(id);
    List.iter
      (fun v ->
        let k = Bitset.rank ix v in
        if k >= 0 then add phi_defs w id k)
      phi_def_lists.(id);
    List.iter (fun v -> add phi_in w id (Bitset.rank ix v)) phi_in_lists.(id)
  done;
  let ins = rows () and outs = rows () in
  let succs = g.Dataflow.succs in
  Dataflow.iterate g ~forward:false (fun id ->
      let changed = ref false in
      for j = id * w to (id * w) + w - 1 do
        let out = ref phi_in.(j) in
        let ss = succs.(id) in
        for i = 0 to Array.length ss - 1 do
          let js = (ss.(i) * w) + j - (id * w) in
          out := !out lor (ins.(js) land lnot phi_defs.(js))
        done;
        outs.(j) <- !out;
        let live = upexposed.(j) lor (!out land lnot defs.(j)) in
        if live <> ins.(j) then begin
          ins.(j) <- live;
          changed := true
        end
      done;
      !changed);
  { nregs = width; regs; w; ins; outs; def_blocks;
    wide_in = Array.make n None; wide_out = Array.make n None }

let widen t cache sets id =
  match cache.(id) with
  | Some s -> s
  | None ->
    let s = Bitset.create t.nregs in
    for j = 0 to t.w - 1 do
      let word = ref sets.((id * t.w) + j) and k = ref (j * bpw) in
      while !word <> 0 do
        if !word land 1 <> 0 then Bitset.add s t.regs.(!k);
        word := !word lsr 1;
        incr k
      done
    done;
    cache.(id) <- Some s;
    s

let live_in t id = widen t t.wide_in t.ins id

let live_out t id = widen t t.wide_out t.outs id

let nonlocal t = t.regs

let live_into t id k = mem t.ins t.w id k

let def_blocks t k = t.def_blocks.(k)

let nregs t = t.nregs
