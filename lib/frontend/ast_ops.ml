(** AST printing. See the interface. *)

open Ast

(* Precedence, loosest to tightest, mirroring the parser: || < && <
   comparisons < additive < multiplicative < unary < postfix. *)
let binary_prec = function
  | BOr -> 1
  | BAnd -> 2
  | BEq | BNe | BLt | BLe | BGt | BGe -> 3
  | BAdd | BSub -> 4
  | BMul | BDiv | BRem -> 5

let binary_sym = function
  | BOr -> "||"
  | BAnd -> "&&"
  | BEq -> "=="
  | BNe -> "!="
  | BLt -> "<"
  | BLe -> "<="
  | BGt -> ">"
  | BGe -> ">="
  | BAdd -> "+"
  | BSub -> "-"
  | BMul -> "*"
  | BDiv -> "/"
  | BRem -> "%"

(* The lexer's float grammar has no sign and needs a digit before any '.',
   which every [Printf] rendering of a finite non-negative float satisfies;
   negative literals print with a leading '-' and reparse as a (semantically
   identical) unary negation. *)
let float_lit f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec expr_str ctx e =
  match e with
  | Int_lit i -> if i < 0 then "(" ^ string_of_int i ^ ")" else string_of_int i
  | Float_lit f -> float_lit f
  | Var v -> v
  | Index (a, subs) ->
    a ^ "[" ^ String.concat ", " (List.map (expr_str 0) subs) ^ "]"
  | Call (f, args) ->
    f ^ "(" ^ String.concat ", " (List.map (expr_str 0) args) ^ ")"
  | Unary (op, x) ->
    let s = (match op with UNeg -> "-" | UNot -> "!") ^ expr_str 6 x in
    if ctx > 6 then "(" ^ s ^ ")" else s
  | Binary (op, a, b) ->
    let p = binary_prec op in
    (* Comparisons do not chain in the grammar, so both operands must bind
       tighter; the associative levels only need it on the right. *)
    let lhs_ctx = if p = 3 then p + 1 else p in
    let s =
      expr_str lhs_ctx a ^ " " ^ binary_sym op ^ " " ^ expr_str (p + 1) b
    in
    if p < ctx then "(" ^ s ^ ")" else s

let print_program prog =
  let buf = Buffer.create 1024 in
  let line ind s =
    Buffer.add_string buf (String.make (2 * ind) ' ');
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  let rec stmt ind s =
    match s.desc with
    | Decl (n, ty, init) ->
      line ind
        (Printf.sprintf "var %s: %s%s;" n (vtype_to_string ty)
           (match init with Some e -> " = " ^ expr_str 0 e | None -> ""))
    | Assign (v, e) -> line ind (Printf.sprintf "%s = %s;" v (expr_str 0 e))
    | Assign_index (a, subs, e) ->
      line ind
        (Printf.sprintf "%s[%s] = %s;" a
           (String.concat ", " (List.map (expr_str 0) subs))
           (expr_str 0 e))
    | If (c, then_, else_) ->
      line ind (Printf.sprintf "if (%s) {" (expr_str 0 c));
      List.iter (stmt (ind + 1)) then_;
      if else_ = [] then line ind "}"
      else begin
        line ind "} else {";
        List.iter (stmt (ind + 1)) else_;
        line ind "}"
      end
    | While (c, body) ->
      line ind (Printf.sprintf "while (%s) {" (expr_str 0 c));
      List.iter (stmt (ind + 1)) body;
      line ind "}"
    | For { var; start; stop; step; down; body } ->
      line ind
        (Printf.sprintf "for %s = %s %s %s%s {" var (expr_str 0 start)
           (if down then "downto" else "to")
           (expr_str 0 stop)
           (match step with Some e -> " step " ^ expr_str 0 e | None -> ""));
      List.iter (stmt (ind + 1)) body;
      line ind "}"
    | Return None -> line ind "return;"
    | Return (Some e) -> line ind (Printf.sprintf "return %s;" (expr_str 0 e))
    | Expr_stmt (Call (f, args)) ->
      line ind
        (Printf.sprintf "%s(%s);" f (String.concat ", " (List.map (expr_str 0) args)))
    | Expr_stmt _ ->
      invalid_arg "Ast_ops.print_program: bare expression statement"
  in
  List.iteri
    (fun i (f : fndef) ->
      if i > 0 then Buffer.add_char buf '\n';
      let params =
        String.concat ", "
          (List.map (fun (n, ty) -> n ^ ": " ^ vtype_to_string ty) f.params)
      in
      let ret = match f.ret with Some t -> ": " ^ scalar_ty_to_string t | None -> "" in
      line 0 (Printf.sprintf "fn %s(%s)%s {" f.name params ret);
      List.iter (stmt 1) f.body;
      line 0 "}")
    prog;
  Buffer.contents buf
