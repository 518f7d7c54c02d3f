(** Dominator-tree value numbering with hashing — the second pass the
    paper's optimizer was missing ("we are currently missing passes for
    strength reduction and hash-based value numbering", Section 4.1), in
    the style Briggs, Cooper and Simpson later published.

    A preorder dominator-tree walk over internally-built SSA carrying a
    scoped hash table of expressions, with the classic extras that separate
    it from the bare [Cse_dom] comparator:

    - copy propagation through the value-number map (uses are rewritten to
      their value's canonical register);
    - constant folding: an expression over constant value numbers becomes a
      constant, which is itself hashed;
    - algebraic simplification via [Op.identity], [Op.annihilator] and
      self-cancellation;
    - meaningless phis (all arguments carry one value) are replaced.

    Redundant instructions become copies to the canonical register (never
    dropped outright — a back-edge phi argument may still name the original
    destination), which DCE and coalescing then clean. The paper's
    conjecture that "hash-based value numbering should also benefit from
    reassociation" is measurable by running this after [Reassociate]. *)

open Epre_ir
open Epre_analysis

open Expr_key

let run (r : Routine.t) =
  let { Epre_ssa.Ssa.dom; _ } = Epre_ssa.Ssa.build r in
  let cfg = r.Routine.cfg in
  let width = max 1 r.Routine.next_reg in
  (* value number: canonical register per value; identity by default *)
  let vn = Array.init width Fun.id in
  let lookup v = if v < width then vn.(v) else v in
  (* constant value of a canonical register, when known *)
  let const_of : (Instr.reg, Value.t) Hashtbl.t = Hashtbl.create 32 in
  let table : Instr.reg Tbl.t = Tbl.create 64 in
  let replaced = ref 0 in
  let rec walk id =
    let b = Cfg.block cfg id in
    let scope = ref [] in
    let bind key dst =
      Tbl.add table key dst;
      scope := key :: !scope
    in
    let vn_saves = ref [] in
    let set_vn dst rep =
      vn_saves := (dst, vn.(dst)) :: !vn_saves;
      vn.(dst) <- rep
    in
    let redirect dst rep =
      set_vn dst rep;
      incr replaced;
      Instr.Copy { dst; src = rep }
    in
    let hash_or_bind key dst i =
      match Tbl.find_opt table key with
      | Some rep -> redirect dst rep
      | None ->
        bind key dst;
        i
    in
    b.Block.instrs <-
      List.map
        (fun i ->
          (* copy propagation: route every use through its value number;
             phi arguments from not-yet-visited predecessors keep their
             original names (lookup is the identity there). *)
          let i = Instr.map_uses lookup i in
          match i with
          | Instr.Const { dst; value } ->
            (match Tbl.find_opt table (KConst value) with
            | Some rep -> redirect dst rep
            | None ->
              bind (KConst value) dst;
              Hashtbl.replace const_of dst value;
              i)
          | Instr.Copy { dst; src } ->
            (* propagate: later uses of dst route to src's value *)
            set_vn dst (lookup src);
            i
          | Instr.Unop { op; dst; src } -> begin
            match Hashtbl.find_opt const_of src with
            | Some v -> begin
              match Op.eval_unop op v with
              | folded -> begin
                match Tbl.find_opt table (KConst folded) with
                | Some rep -> redirect dst rep
                | None ->
                  bind (KConst folded) dst;
                  Hashtbl.replace const_of dst folded;
                  Instr.Const { dst; value = folded }
              end
              | exception Value.Type_error _ -> hash_or_bind (KUnop (op, src)) dst i
            end
            | None -> hash_or_bind (KUnop (op, src)) dst i
          end
          | Instr.Binop { op; dst; a; b = b' } -> begin
            let ca = Hashtbl.find_opt const_of a in
            let cb = Hashtbl.find_opt const_of b' in
            match ca, cb with
            | Some va, Some vb -> begin
              match Op.eval_binop op va vb with
              | folded -> begin
                match Tbl.find_opt table (KConst folded) with
                | Some rep -> redirect dst rep
                | None ->
                  bind (KConst folded) dst;
                  Hashtbl.replace const_of dst folded;
                  Instr.Const { dst; value = folded }
              end
              | exception (Op.Division_by_zero | Value.Type_error _) ->
                hash_or_bind (Expr_key.binop op a b') dst i
            end
            | _ ->
              (* algebraic identities over one constant operand *)
              let simplified =
                let ident v other =
                  match Op.identity op with
                  | Some id when Value.equal id v -> Some (`Reg other)
                  | _ -> None
                in
                let annih v =
                  match Op.annihilator op with
                  | Some z when Value.equal z v -> Some (`Const z)
                  | _ -> None
                in
                match ca, cb with
                | _, Some vb -> begin
                  match ident vb a with
                  | Some x -> Some x
                  | None -> annih vb
                end
                | Some va, _ when Op.commutative op -> begin
                  match ident va b' with
                  | Some x -> Some x
                  | None -> annih va
                end
                | _ ->
                  if a = b' && (op = Op.Sub || op = Op.Xor) then
                    Some (`Const (Value.I 0))
                  else None
              in
              (match simplified with
              | Some (`Reg rep) -> redirect dst (lookup rep)
              | Some (`Const z) -> begin
                match Tbl.find_opt table (KConst z) with
                | Some rep -> redirect dst rep
                | None ->
                  bind (KConst z) dst;
                  Hashtbl.replace const_of dst z;
                  Instr.Const { dst; value = z }
              end
              | None -> hash_or_bind (Expr_key.binop op a b') dst i)
          end
          | Instr.Phi _ ->
            (* Phis stay opaque here; GVN's optimistic partitioning is the
               engine for phi equivalence (Section 3.2). *)
            i
          | Instr.Load _ | Instr.Store _ | Instr.Alloca _ | Instr.Call _ -> i)
        b.Block.instrs;
    b.Block.term <- Instr.map_term_uses lookup b.Block.term;
    List.iter walk (Dom.children dom id);
    List.iter (fun key -> Tbl.remove table key) !scope;
    List.iter (fun (dst, old) -> vn.(dst) <- old) !vn_saves
  in
  walk (Cfg.entry cfg);
  let r = Epre_ssa.Ssa.destroy r in
  ignore r;
  !replaced
