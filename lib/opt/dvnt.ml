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
    - algebraic simplification by the identity table's rewrite rows
      ([Algebra.rows]) whose right side is a register or a constant
      (identity and absorbing elements, self-cancellation and
      self-comparison, double negation), seen through the value numbers;
    - meaningless phis (all arguments carry one value) are replaced.

    Redundant instructions become copies to the canonical register (never
    dropped outright — a back-edge phi argument may still name the original
    destination), which DCE and coalescing then clean. The paper's
    conjecture that "hash-based value numbering should also benefit from
    reassociation" is measurable by running this after [Reassociate]. *)

open Epre_ir
open Epre_analysis

open Expr_key

(* The rewrite rows whose right side is a register or a constant: each
   makes an evaluation a copy or a constant, as a value number can. *)
let rows =
  Algebra.index
    (List.filter
       (fun (row : Algebra.row) ->
         row.rewrite && match row.rhs with Algebra.X | Algebra.Y | Algebra.K _ -> true | _ -> false)
       Algebra.rows)

let run (r : Routine.t) =
  let { Epre_ssa.Ssa.dom; _ } = Epre_ssa.Ssa.build r in
  let cfg = r.Routine.cfg in
  let width = max 1 r.Routine.next_reg in
  (* value number: canonical register per value; identity by default *)
  let vn = Array.init width Fun.id in
  let lookup v = if v < width then vn.(v) else v in
  (* constant value of a canonical register, when known *)
  let const_of : (Instr.reg, Value.t) Hashtbl.t = Hashtbl.create 32 in
  (* the evaluation a canonical register was defined by, when it is one;
     in SSA a register has one definition, which dominates its uses *)
  let def_of : (Instr.reg, Instr.reg Algebra.expr) Hashtbl.t = Hashtbl.create 32 in
  let view =
    { Algebra.const = Hashtbl.find_opt const_of; def = Hashtbl.find_opt def_of; equal = Int.equal }
  in
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
    (* [dst] is the constant [value]: an earlier register holding it, or
       a const. *)
    let konst dst value =
      match Tbl.find_opt table (KConst value) with
      | Some rep -> redirect dst rep
      | None ->
        bind (KConst value) dst;
        Hashtbl.replace const_of dst value;
        Instr.Const { dst; value }
    in
    (* An evaluation into [dst] simplified to the constant [value]. *)
    let simplified dst value =
      if not (Tbl.mem table (KConst value)) then incr replaced;
      konst dst value
    in
    (* Evaluation [i] of [e] into [dst]: folded when its operands are
       constants, else rewritten by the first row that fits, else hashed. *)
    let evaluate dst e i =
      let const = Hashtbl.find_opt const_of in
      let folded =
        try
          match e with
          | Algebra.Un (op, a) -> Option.map (Op.eval_unop op) (const a)
          | Algebra.Bin (op, a, b) -> (
            match (const a, const b) with
            | Some va, Some vb -> Some (Op.eval_binop op va vb)
            | _ -> None)
        with Op.Division_by_zero | Value.Type_error _ -> None
      in
      match folded with
      | Some v -> simplified dst v
      | None -> (
        match Algebra.apply view rows e with
        | Some (Algebra.Operand rep) -> redirect dst (lookup rep)
        | Some (Algebra.Const z) -> simplified dst z
        | Some (Algebra.Eval _) | None -> (
          let key =
            match e with
            | Algebra.Un (op, src) -> KUnop (op, src)
            | Algebra.Bin (op, a, b) -> Expr_key.binop op a b
          in
          match Tbl.find_opt table key with
          | Some rep -> redirect dst rep
          | None ->
            bind key dst;
            Hashtbl.replace def_of dst e;
            i))
    in
    b.Block.instrs <-
      List.map
        (fun i ->
          (* copy propagation: route every use through its value number;
             phi arguments from not-yet-visited predecessors keep their
             original names (lookup is the identity there). *)
          let i = Instr.map_uses lookup i in
          match i with
          | Instr.Const { dst; value } -> konst dst value
          | Instr.Copy { dst; src } ->
            (* propagate: later uses of dst route to src's value *)
            set_vn dst (lookup src);
            i
          | Instr.Unop { op; dst; src } -> evaluate dst (Algebra.Un (op, src)) i
          | Instr.Binop { op; dst; a; b = b' } -> evaluate dst (Algebra.Bin (op, a, b')) i
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
