(** Lowering to ILOC with the paper's naming discipline.

    Section 2.2: the front end maintains "a hash table of expressions",
    creating a new name whenever a new expression is discovered, so that
    within a routine lexically-identical expressions always receive the same
    register. Variable names are targets of [Copy] instructions only;
    expression names target everything else. Every occurrence of an
    expression still evaluates — finding the redundant ones is PRE's job,
    not the front end's.

    Array subscripts lower to the 1-based row-major form the paper's
    Section 2.1 discusses: [base + (((i-1)*d2 + (j-1))*d3 + (k-1))]. *)

open Ast
open Epre_ir

exception Error of { line : int; message : string }

let err line fmt = Printf.ksprintf (fun message -> raise (Error { line; message })) fmt

type binding =
  | Scalar_var of { reg : Instr.reg; ty : scalar_ty }
  | Array_var of { base : Instr.reg; elt : scalar_ty; dims : int list }

type ctx = {
  env : Sema.env;
  builder : Builder.t;
  vars : (string, binding) Hashtbl.t;
  names : Instr.reg Expr_key.Tbl.t;
      (** the expression hash table of Section 2.2: key -> canonical name;
          loads are named per address expression *)
  ret : scalar_ty option;
}

(* ------------------------------------------------------------------ *)
(* Named emission: every occurrence emits code, but the destination is the
   canonical name for that expression. *)

let name_of ctx key =
  match Expr_key.Tbl.find_opt ctx.names key with
  | Some r -> r
  | None ->
    let r = Builder.fresh_reg ctx.builder in
    Expr_key.Tbl.replace ctx.names key r;
    r

let emit_const ctx v =
  let dst = name_of ctx (Expr_key.KConst v) in
  Builder.emit ctx.builder (Instr.Const { dst; value = v });
  dst

let emit_unop ctx op src =
  let dst = name_of ctx (Expr_key.KUnop (op, src)) in
  Builder.emit ctx.builder (Instr.Unop { op; dst; src });
  dst

let emit_binop ctx op a b =
  (* Canonicalize commutative operand order so [a+b] and [b+a] share a
     name. *)
  let a, b = if Op.commutative op && b < a then (b, a) else (a, b) in
  let dst = name_of ctx (Expr_key.KBinop (op, a, b)) in
  Builder.emit ctx.builder (Instr.Binop { op; dst; a; b });
  dst

let emit_load ctx addr =
  (* Loads share a name per address expression; stores and calls kill them
     in the downstream redundancy analyses. *)
  let dst = name_of ctx (Expr_key.KLoad addr) in
  Builder.emit ctx.builder (Instr.Load { dst; addr });
  dst

(* ------------------------------------------------------------------ *)

let lookup_var ctx line name =
  match Hashtbl.find_opt ctx.vars name with
  | Some b -> b
  | None -> err line "undefined variable %s (lowering)" name

let widen ctx ~(from_ : scalar_ty) ~(to_ : scalar_ty) reg =
  match from_, to_ with
  | TInt, TInt | TFlt, TFlt -> reg
  | TInt, TFlt -> emit_unop ctx Op.I2F reg
  | TFlt, TInt -> err 0 "internal: float->int widening is never implicit"

let arith_binop op ty =
  match ty, op with
  | TInt, BAdd -> Op.Add
  | TInt, BSub -> Op.Sub
  | TInt, BMul -> Op.Mul
  | TInt, BDiv -> Op.Div
  | TFlt, BAdd -> Op.FAdd
  | TFlt, BSub -> Op.FSub
  | TFlt, BMul -> Op.FMul
  | TFlt, BDiv -> Op.FDiv
  | _ -> invalid_arg "arith_binop"

let cmp_binop op ty =
  match ty, op with
  | TInt, BEq -> Op.Eq
  | TInt, BNe -> Op.Ne
  | TInt, BLt -> Op.Lt
  | TInt, BLe -> Op.Le
  | TInt, BGt -> Op.Gt
  | TInt, BGe -> Op.Ge
  | TFlt, BEq -> Op.FEq
  | TFlt, BNe -> Op.FNe
  | TFlt, BLt -> Op.FLt
  | TFlt, BLe -> Op.FLe
  | TFlt, BGt -> Op.FGt
  | TFlt, BGe -> Op.FGe
  | _ -> invalid_arg "cmp_binop"

let rec lower_scalar ctx line e : Instr.reg * scalar_ty =
  match e with
  | Int_lit i -> (emit_const ctx (Value.I i), TInt)
  | Float_lit f -> (emit_const ctx (Value.F f), TFlt)
  | Var name -> begin
    match lookup_var ctx line name with
    | Scalar_var { reg; ty } -> (reg, ty)
    | Array_var _ -> err line "array %s used as a scalar" name
  end
  | Index (name, subs) -> begin
    match lookup_var ctx line name with
    | Array_var { base; elt; dims } ->
      let addr = lower_address ctx line ~base ~dims subs in
      (emit_load ctx addr, elt)
    | Scalar_var _ -> err line "scalar %s used as an array" name
  end
  | Unary (UNeg, e) ->
    let r, ty = lower_scalar ctx line e in
    let op = match ty with TInt -> Op.Neg | TFlt -> Op.FNeg in
    (emit_unop ctx op r, ty)
  | Unary (UNot, e) ->
    let r, _ = lower_scalar ctx line e in
    let zero = emit_const ctx (Value.I 0) in
    (emit_binop ctx Op.Eq r zero, TInt)
  | Binary ((BAdd | BSub | BMul | BDiv) as op, a, b) ->
    let ra, ta = lower_scalar ctx line a in
    let rb, tb = lower_scalar ctx line b in
    let ty = Sema.join_scalar line ta tb in
    let ra = widen ctx ~from_:ta ~to_:ty ra in
    let rb = widen ctx ~from_:tb ~to_:ty rb in
    (emit_binop ctx (arith_binop op ty) ra rb, ty)
  | Binary (BRem, a, b) ->
    let ra, _ = lower_scalar ctx line a in
    let rb, _ = lower_scalar ctx line b in
    (emit_binop ctx Op.Rem ra rb, TInt)
  | Binary ((BAnd | BOr) as op, a, b) ->
    (* FORTRAN-style eager logical operators over normalized booleans. *)
    let ra, _ = lower_scalar ctx line a in
    let rb, _ = lower_scalar ctx line b in
    let zero = emit_const ctx (Value.I 0) in
    let na = emit_binop ctx Op.Ne ra zero in
    let nb = emit_binop ctx Op.Ne rb zero in
    let o = match op with BAnd -> Op.And | BOr -> Op.Or | _ -> assert false in
    (emit_binop ctx o na nb, TInt)
  | Binary ((BEq | BNe | BLt | BLe | BGt | BGe) as op, a, b) ->
    let ra, ta = lower_scalar ctx line a in
    let rb, tb = lower_scalar ctx line b in
    let ty = Sema.join_scalar line ta tb in
    let ra = widen ctx ~from_:ta ~to_:ty ra in
    let rb = widen ctx ~from_:tb ~to_:ty rb in
    (emit_binop ctx (cmp_binop op ty) ra rb, TInt)
  | Call (name, args) -> lower_call ctx line name args

and lower_address ctx line ~base ~dims subs =
  let one = emit_const ctx (Value.I 1) in
  let lower_sub s =
    let r, ty = lower_scalar ctx line s in
    match ty with
    | TInt -> emit_binop ctx Op.Sub r one
    | TFlt -> err line "array subscript must be int"
  in
  let offsets = List.map lower_sub subs in
  let offset =
    match offsets, dims with
    | [ o ], [ _ ] -> o
    | [ oi; oj ], [ _; d2 ] ->
      let d2r = emit_const ctx (Value.I d2) in
      let row = emit_binop ctx Op.Mul oi d2r in
      emit_binop ctx Op.Add row oj
    | [ oi; oj; ok ], [ _; d2; d3 ] ->
      let d2r = emit_const ctx (Value.I d2) in
      let d3r = emit_const ctx (Value.I d3) in
      let row = emit_binop ctx Op.Mul oi d2r in
      let plane = emit_binop ctx Op.Add row oj in
      let scaled = emit_binop ctx Op.Mul plane d3r in
      emit_binop ctx Op.Add scaled ok
    | _ -> err line "subscript count does not match array rank"
  in
  emit_binop ctx Op.Add base offset

and lower_call ctx line name args : Instr.reg * scalar_ty =
  match Sema.intrinsic_of_name name with
  | Some Sema.Sqrt ->
    let r, ty = lower_scalar ctx line (List.hd args) in
    let r = widen ctx ~from_:ty ~to_:TFlt r in
    (emit_unop ctx Op.Sqrt r, TFlt)
  | Some Sema.Abs ->
    let r, ty = lower_scalar ctx line (List.hd args) in
    let op = match ty with TInt -> Op.IAbs | TFlt -> Op.FAbs in
    (emit_unop ctx op r, ty)
  | Some (Sema.Min | Sema.Max) -> begin
    match args with
    | [ a; b ] ->
      let ra, ta = lower_scalar ctx line a in
      let rb, tb = lower_scalar ctx line b in
      let ty = Sema.join_scalar line ta tb in
      let ra = widen ctx ~from_:ta ~to_:ty ra in
      let rb = widen ctx ~from_:tb ~to_:ty rb in
      let op =
        match name, ty with
        | "min", TInt -> Op.Min
        | "min", TFlt -> Op.FMin
        | "max", TInt -> Op.Max
        | _, TInt -> Op.Max
        | _, TFlt -> Op.FMax
      in
      (emit_binop ctx op ra rb, ty)
    | _ -> err line "min/max expect two arguments"
  end
  | Some Sema.Mod -> begin
    match args with
    | [ a; b ] ->
      let ra, _ = lower_scalar ctx line a in
      let rb, _ = lower_scalar ctx line b in
      (emit_binop ctx Op.Rem ra rb, TInt)
    | _ -> err line "mod expects two arguments"
  end
  | Some Sema.To_float ->
    let r, ty = lower_scalar ctx line (List.hd args) in
    (widen ctx ~from_:ty ~to_:TFlt r, TFlt)
  | Some Sema.To_int ->
    let r, ty = lower_scalar ctx line (List.hd args) in
    (match ty with
    | TInt -> (r, TInt)
    | TFlt -> (emit_unop ctx Op.F2I r, TInt))
  | Some Sema.Emit ->
    let r, ty = lower_scalar ctx line (List.hd args) in
    Builder.call_void ctx.builder ~callee:"emit" [ r ];
    (r, ty)
  | None -> begin
    match Hashtbl.find_opt ctx.env.Sema.fsigs name with
    | None -> err line "call to undefined routine %s" name
    | Some { Sema.fparams; fret } ->
      let regs = lower_user_call_args ctx line name args fparams in
      (match fret with
      | Some t ->
        (* Each call site gets a fresh destination: calls are not
           expressions in the Section 2.2 sense and never participate in
           redundancy elimination. *)
        let dst = Builder.fresh_reg ctx.builder in
        Builder.emit ctx.builder (Instr.Call { dst = Some dst; callee = name; args = regs });
        (dst, t)
      | None -> err line "routine %s returns no value" name)
  end

and lower_user_call_args ctx line name args fparams =
  ignore name;
  List.map2
    (fun arg expected ->
      match expected, arg with
      | Array _, Var aname -> begin
        match lookup_var ctx line aname with
        | Array_var { base; _ } -> base
        | Scalar_var _ -> err line "expected array argument %s" aname
      end
      | Array _, _ -> err line "array arguments must be array names"
      | Scalar want, _ ->
        let r, ty = lower_scalar ctx line arg in
        widen ctx ~from_:ty ~to_:want r)
    args fparams

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)

let lower_truth ctx line e =
  (* Conditions branch on "non-zero"; comparison results are already 0/1
     and arbitrary ints work unchanged. *)
  let r, ty = lower_scalar ctx line e in
  match ty with
  | TInt -> r
  | TFlt -> err line "condition must be int"

let assign_scalar ctx line name e =
  match lookup_var ctx line name with
  | Scalar_var { reg; ty } ->
    let r, rty = lower_scalar ctx line e in
    let r = widen ctx ~from_:rty ~to_:ty r in
    Builder.copy_to ctx.builder ~dst:reg ~src:r
  | Array_var _ -> err line "cannot assign to array %s" name

let rec lower_stmt ctx (s : stmt) =
  let line = s.line in
  let b = ctx.builder in
  match s.desc with
  | Decl (_, _, None) -> ()
  | Decl (name, Scalar _, Some e) -> assign_scalar ctx line name e
  | Decl (_, Array _, Some _) -> err line "arrays cannot have initializers"
  | Assign (name, e) -> assign_scalar ctx line name e
  | Assign_index (name, subs, e) -> begin
    match lookup_var ctx line name with
    | Array_var { base; elt; dims } ->
      let r, rty = lower_scalar ctx line e in
      let r = widen ctx ~from_:rty ~to_:elt r in
      let addr = lower_address ctx line ~base ~dims subs in
      Builder.store b ~addr ~src:r
    | Scalar_var _ -> err line "scalar %s used as an array" name
  end
  | If (cond, then_, else_) ->
    let c = lower_truth ctx line cond in
    let bthen = Builder.new_block b in
    let bjoin = Builder.new_block b in
    if else_ = [] then begin
      Builder.cbr b ~cond:c ~ifso:bthen ~ifnot:bjoin;
      Builder.switch b bthen;
      List.iter (lower_stmt ctx) then_;
      Builder.jump b bjoin
    end
    else begin
      let belse = Builder.new_block b in
      Builder.cbr b ~cond:c ~ifso:bthen ~ifnot:belse;
      Builder.switch b bthen;
      List.iter (lower_stmt ctx) then_;
      Builder.jump b bjoin;
      Builder.switch b belse;
      List.iter (lower_stmt ctx) else_;
      Builder.jump b bjoin
    end;
    Builder.switch b bjoin
  | While (cond, body) ->
    (* Rotated (guard + bottom-test) form, the shape the paper's Figure 3
       gives its loops: the body is executed at least once past the guard,
       which makes loop-invariant expressions down-safe in the preheader —
       the precondition for PRE to hoist them (Section 2). *)
    let bbody = Builder.new_block b in
    let bexit = Builder.new_block b in
    let c = lower_truth ctx line cond in
    Builder.cbr b ~cond:c ~ifso:bbody ~ifnot:bexit;
    Builder.switch b bbody;
    List.iter (lower_stmt ctx) body;
    let c' = lower_truth ctx line cond in
    Builder.cbr b ~cond:c' ~ifso:bbody ~ifnot:bexit;
    Builder.switch b bexit
  | For { var; start; stop; step; down; body } -> begin
    match lookup_var ctx line var with
    | Scalar_var { reg = ivar; ty = TInt } ->
      (* FORTRAN DO semantics: bounds and step evaluated once, snapshotted
         into variable names. *)
      let rstart, _ = lower_scalar ctx line start in
      Builder.copy_to b ~dst:ivar ~src:rstart;
      let rstop, _ = lower_scalar ctx line stop in
      let limit = Builder.fresh_reg b in
      Builder.copy_to b ~dst:limit ~src:rstop;
      let rstep =
        match step with
        | None -> emit_const ctx (Value.I 1)
        | Some e -> fst (lower_scalar ctx line e)
      in
      let stepr = Builder.fresh_reg b in
      Builder.copy_to b ~dst:stepr ~src:rstep;
      (* Rotated DO-loop shape, exactly Figure 3: a zero-trip guard at the
         top, the trip test at the bottom. Both tests are the same
         lexically-identical expression, hence share a name. *)
      let bbody = Builder.new_block b in
      let bexit = Builder.new_block b in
      let cmp = if down then Op.Ge else Op.Le in
      let c = emit_binop ctx cmp ivar limit in
      Builder.cbr b ~cond:c ~ifso:bbody ~ifnot:bexit;
      Builder.switch b bbody;
      List.iter (lower_stmt ctx) body;
      let next =
        if down then emit_binop ctx Op.Sub ivar stepr
        else emit_binop ctx Op.Add ivar stepr
      in
      Builder.copy_to b ~dst:ivar ~src:next;
      let c' = emit_binop ctx cmp ivar limit in
      Builder.cbr b ~cond:c' ~ifso:bbody ~ifnot:bexit;
      Builder.switch b bexit
    | _ -> err line "loop variable %s must be a declared int scalar" var
  end
  | Return None ->
    Builder.ret b None;
    let dead = Builder.new_block b in
    Builder.switch b dead
  | Return (Some e) ->
    let r, ty = lower_scalar ctx line e in
    let r =
      match ctx.ret with
      | Some want -> widen ctx ~from_:ty ~to_:want r
      | None -> err line "routine returns no value"
    in
    Builder.ret b (Some r);
    let dead = Builder.new_block b in
    Builder.switch b dead
  | Expr_stmt (Call (name, args))
    when not (Sema.is_intrinsic name)
         && (match Hashtbl.find_opt ctx.env.Sema.fsigs name with
            | Some { Sema.fret = None; _ } -> true
            | Some _ | None -> false) -> begin
    (* Void routine in statement position. *)
    match Hashtbl.find_opt ctx.env.Sema.fsigs name with
    | Some { Sema.fparams; _ } ->
      let regs = lower_user_call_args ctx line name args fparams in
      Builder.call_void b ~callee:name regs
    | None -> assert false
  end
  | Expr_stmt e -> ignore (lower_scalar ctx line e)

(* Collect every declaration in the (flat-scoped) body. *)
let rec collect_decls acc (s : stmt) =
  match s.desc with
  | Decl (name, ty, _) -> (name, ty, s.line) :: acc
  | If (_, a, b) -> List.fold_left collect_decls (List.fold_left collect_decls acc a) b
  | While (_, body) | For { body; _ } -> List.fold_left collect_decls acc body
  | Assign _ | Assign_index _ | Return _ | Expr_stmt _ -> acc

let lower_fn env (f : fndef) =
  let builder = Builder.start ~name:f.name ~nparams:(List.length f.params) in
  let vars = Hashtbl.create 16 in
  List.iteri
    (fun i (name, ty) ->
      match ty with
      | Scalar t -> Hashtbl.replace vars name (Scalar_var { reg = i; ty = t })
      | Array { elt; dims } -> Hashtbl.replace vars name (Array_var { base = i; elt; dims }))
    f.params;
  let ctx = { env; builder; vars; names = Expr_key.Tbl.create 64; ret = f.ret } in
  (* Materialize every local up front: arrays get their frame storage, and
     scalars a zero initialization, which guarantees the strictness (no use
     before definition) that SSA construction assumes. *)
  let decls = List.rev (List.fold_left collect_decls [] f.body) in
  List.iter
    (fun (name, ty, line) ->
      if Hashtbl.mem vars name then err line "duplicate declaration of %s" name;
      match ty with
      | Scalar t ->
        let reg = Builder.fresh_reg builder in
        let zero =
          emit_const ctx (match t with TInt -> Value.I 0 | TFlt -> Value.F 0.0)
        in
        Builder.copy_to builder ~dst:reg ~src:zero;
        Hashtbl.replace vars name (Scalar_var { reg; ty = t })
      | Array { elt; dims } ->
        let words = List.fold_left ( * ) 1 dims in
        let init = match elt with TInt -> Value.I 0 | TFlt -> Value.F 0.0 in
        let base = Builder.alloca ~init builder words in
        Hashtbl.replace vars name (Array_var { base; elt; dims }))
    decls;
  List.iter (lower_stmt ctx) f.body;
  (* Fall-through off the end: return a zero of the declared type. *)
  (match f.ret with
  | None -> Builder.ret builder None
  | Some t ->
    let zero = emit_const ctx (match t with TInt -> Value.I 0 | TFlt -> Value.F 0.0) in
    Builder.ret builder (Some zero));
  Builder.finish builder

let lower_program env (prog : program) =
  Program.create (List.map (lower_fn env) prog)
