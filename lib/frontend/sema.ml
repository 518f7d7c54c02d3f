(** Semantic analysis: symbol resolution and type checking.

    The language has a deliberately FORTRAN-flavoured static semantics:
    one flat scope per routine (a name may be declared once and is visible
    from its declaration onward), implicit [int] to [float] widening in
    arithmetic, assignments, arguments and returns, and arrays passed by
    reference with shapes that must match the callee's declaration.

    The lowering pass shares [join_scalar] and the intrinsic table, so
    the two agree on widening and on intrinsics. *)

open Ast

exception Error of { line : int; message : string }

let err line fmt = Printf.ksprintf (fun message -> raise (Error { line; message })) fmt

type fsig = { fparams : vtype list; fret : scalar_ty option }

type env = { fsigs : (string, fsig) Hashtbl.t }

type intrinsic = Sqrt | Abs | Min | Max | Mod | To_float | To_int | Emit

let intrinsic_of_name = function
  | "sqrt" -> Some Sqrt
  | "abs" -> Some Abs
  | "min" -> Some Min
  | "max" -> Some Max
  | "mod" -> Some Mod
  | "float" -> Some To_float
  | "int" -> Some To_int
  | "emit" -> Some Emit
  | _ -> None

let is_intrinsic name = Option.is_some (intrinsic_of_name name)

(* Widen int to float when the other operand is float. *)
let join_scalar line a b =
  match a, b with
  | TInt, TInt -> TInt
  | TFlt, TFlt | TInt, TFlt | TFlt, TInt -> ignore line; TFlt

let scalar line ~what = function
  | Scalar t -> t
  | Array _ as a -> err line "%s must be a scalar, got %s" what (vtype_to_string a)

(* [vars] looks a name up in the routine's scope. *)
let rec type_of_expr env ~vars ~line e : vtype =
  let scalar_of e ~what = scalar line ~what (type_of_expr env ~vars ~line e) in
  match e with
  | Int_lit _ -> Scalar TInt
  | Float_lit _ -> Scalar TFlt
  | Var name -> begin
    match vars name with
    | Some t -> t
    | None -> err line "undefined variable %s" name
  end
  | Index (name, subs) -> begin
    match vars name with
    | Some (Array { elt; dims }) ->
      if List.length subs <> List.length dims then
        err line "array %s has rank %d but %d subscripts given" name (List.length dims)
          (List.length subs);
      List.iter
        (fun s ->
          match scalar_of s ~what:"array subscript" with
          | TInt -> ()
          | TFlt -> err line "array subscript must be int")
        subs;
      Scalar elt
    | Some (Scalar _) -> err line "%s is a scalar, not an array" name
    | None -> err line "undefined array %s" name
  end
  | Unary (UNeg, e) -> Scalar (scalar_of e ~what:"negation operand")
  | Unary (UNot, e) -> begin
    match scalar_of e ~what:"'!' operand" with
    | TInt -> Scalar TInt
    | TFlt -> err line "'!' requires an int operand"
  end
  | Binary (op, a, b) -> begin
    let ta = scalar_of a ~what:"operand" in
    let tb = scalar_of b ~what:"operand" in
    match op with
    | BAdd | BSub | BMul | BDiv -> Scalar (join_scalar line ta tb)
    | BRem -> begin
      match ta, tb with
      | TInt, TInt -> Scalar TInt
      | _ -> err line "'%%' requires int operands"
    end
    | BAnd | BOr -> begin
      match ta, tb with
      | TInt, TInt -> Scalar TInt
      | _ -> err line "logical operators require int operands"
    end
    | BEq | BNe | BLt | BLe | BGt | BGe -> Scalar TInt
  end
  | Call (name, args) -> type_of_call env ~vars ~line name args

and type_of_call env ~vars ~line name args : vtype =
  let scalar_of e ~what = scalar line ~what (type_of_expr env ~vars ~line e) in
  let arity n =
    if List.length args <> n then
      err line "%s expects %d argument(s), got %d" name n (List.length args)
  in
  match intrinsic_of_name name with
  | Some Sqrt ->
    arity 1;
    ignore (scalar_of (List.hd args) ~what:"sqrt argument");
    Scalar TFlt
  | Some Abs ->
    arity 1;
    Scalar (scalar_of (List.hd args) ~what:"abs argument")
  | Some (Min | Max) -> begin
    arity 2;
    match args with
    | [ a; b ] ->
      Scalar (join_scalar line (scalar_of a ~what:"operand") (scalar_of b ~what:"operand"))
    | _ -> assert false
  end
  | Some Mod -> begin
    arity 2;
    match List.map (fun a -> scalar_of a ~what:"mod operand") args with
    | [ TInt; TInt ] -> Scalar TInt
    | _ -> err line "mod requires int operands"
  end
  | Some To_float ->
    arity 1;
    ignore (scalar_of (List.hd args) ~what:"float() argument");
    Scalar TFlt
  | Some To_int ->
    arity 1;
    ignore (scalar_of (List.hd args) ~what:"int() argument");
    Scalar TInt
  | Some Emit ->
    arity 1;
    ignore (scalar_of (List.hd args) ~what:"emit argument");
    Scalar TInt
  | None -> begin
    match Hashtbl.find_opt env.fsigs name with
    | None -> err line "call to undefined routine %s" name
    | Some { fparams; fret } ->
      if List.length args <> List.length fparams then
        err line "%s expects %d argument(s), got %d" name (List.length fparams)
          (List.length args);
      List.iteri
        (fun i (arg, expected) ->
          let got = type_of_expr env ~vars ~line arg in
          match expected, got with
          | Scalar TFlt, Scalar (TInt | TFlt) | Scalar TInt, Scalar TInt -> ()
          | Scalar TInt, Scalar TFlt ->
            err line "argument %d of %s: cannot pass float for int" (i + 1) name
          | Array { elt = e1; dims = d1 }, Array { elt = e2; dims = d2 }
            when e1 = e2 && d1 = d2 -> ()
          | expected, got ->
            err line "argument %d of %s: expected %s, got %s" (i + 1) name
              (vtype_to_string expected) (vtype_to_string got))
        (List.combine args fparams);
      (match fret with
      | Some t -> Scalar t
      | None -> err line "routine %s returns no value and cannot be used in an expression" name)
  end

(* Call in statement position: void routines are fine. *)
and check_call_stmt env ~vars ~line name args =
  match intrinsic_of_name name, Hashtbl.find_opt env.fsigs name with
  | None, Some { fret = None; fparams } ->
    let saved = { fsigs = Hashtbl.copy env.fsigs } in
    (* Reuse the argument checking of [type_of_call] by faking an [int]
       return; only the arguments are validated. *)
    Hashtbl.replace saved.fsigs name { fret = Some TInt; fparams };
    ignore (type_of_call saved ~vars ~line name args)
  | _ -> ignore (type_of_call env ~vars ~line name args)

(* ------------------------------------------------------------------ *)
(* Statement checking                                                  *)

type scope = (string, vtype) Hashtbl.t

let check_assignable line ~target ~value =
  match target, value with
  | TFlt, (TInt | TFlt) | TInt, TInt -> ()
  | TInt, TFlt -> err line "cannot assign float to int without int(...)"

let rec check_stmt env (scope : scope) (ret : scalar_ty option) (s : stmt) =
  let line = s.line in
  let vars name = Hashtbl.find_opt scope name in
  let expr_ty e = type_of_expr env ~vars ~line e in
  let scalar_expr e ~what = scalar line ~what (expr_ty e) in
  match s.desc with
  | Decl (name, ty, init) ->
    if Hashtbl.mem scope name then err line "duplicate declaration of %s" name;
    (match ty, init with
    | _, None -> ()
    | Scalar t, Some e -> check_assignable line ~target:t ~value:(scalar_expr e ~what:"initializer")
    | Array _, Some _ -> err line "arrays cannot have initializers");
    Hashtbl.replace scope name ty
  | Assign (name, e) -> begin
    match vars name with
    | None -> err line "assignment to undefined variable %s" name
    | Some (Array _) -> err line "cannot assign to array %s without subscripts" name
    | Some (Scalar t) -> check_assignable line ~target:t ~value:(scalar_expr e ~what:"assigned value")
  end
  | Assign_index (name, subs, e) -> begin
    match expr_ty (Index (name, subs)) with
    | Scalar t -> check_assignable line ~target:t ~value:(scalar_expr e ~what:"stored value")
    | Array _ -> assert false
  end
  | If (cond, then_, else_) ->
    (match scalar_expr cond ~what:"condition" with
    | TInt -> ()
    | TFlt -> err line "condition must be int");
    List.iter (check_stmt env scope ret) then_;
    List.iter (check_stmt env scope ret) else_
  | While (cond, body) ->
    (match scalar_expr cond ~what:"condition" with
    | TInt -> ()
    | TFlt -> err line "condition must be int");
    List.iter (check_stmt env scope ret) body
  | For { var; start; stop; step; down = _; body } ->
    (match vars var with
    | Some (Scalar TInt) -> ()
    | Some _ -> err line "loop variable %s must be int" var
    | None -> err line "loop variable %s must be declared before the loop" var);
    List.iter
      (fun (e, what) ->
        match scalar_expr e ~what with
        | TInt -> ()
        | TFlt -> err line "%s must be int" what)
      ((start, "loop start") :: (stop, "loop bound")
      :: (match step with Some e -> [ (e, "loop step") ] | None -> []));
    List.iter (check_stmt env scope ret) body
  | Return None ->
    if ret <> None then err line "this routine must return a value"
  | Return (Some e) -> begin
    match ret with
    | None -> err line "this routine returns no value"
    | Some t -> check_assignable line ~target:t ~value:(scalar_expr e ~what:"return value")
  end
  | Expr_stmt (Call (name, args)) -> check_call_stmt env ~vars ~line name args
  | Expr_stmt e -> ignore (expr_ty e)

let check_fn env (f : fndef) =
  let scope : scope = Hashtbl.create 16 in
  List.iter
    (fun (name, ty) ->
      if Hashtbl.mem scope name then err f.line "duplicate parameter %s in %s" name f.name;
      Hashtbl.replace scope name ty)
    f.params;
  List.iter (check_stmt env scope f.ret) f.body

let check_program (prog : program) =
  let env = { fsigs = Hashtbl.create 16 } in
  List.iter
    (fun (f : fndef) ->
      if Hashtbl.mem env.fsigs f.name then err f.line "duplicate routine %s" f.name;
      if is_intrinsic f.name then err f.line "%s is a reserved intrinsic name" f.name;
      Hashtbl.replace env.fsigs f.name
        { fparams = List.map snd f.params; fret = f.ret })
    prog;
  List.iter (check_fn env) prog;
  env
