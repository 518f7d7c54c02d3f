(* The tokenizer-based [Ir_text] printer and parser, kept as the oracle
   for [Epre_ir.Ir_text]'s scanner: [Test_ir_text]'s differential
   property requires both parsers to accept the same programs (with equal
   printed text) and to reject the rest with the same [Parse_error] line
   and message or the same [Routine.Ill_formed] text. Each line is cut at
   [#], split into a string list of tokens and matched as a list;
   opcodes are looked up with [List.assoc]. *)

open Epre_ir

exception Parse_error of { line : int; message : string }

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let print_value buf v =
  Buffer.add_string buf (Value.to_string v)

let add_reg buf r =
  Buffer.add_char buf 'r';
  Buffer.add_string buf (string_of_int r)

let add_label buf l =
  Buffer.add_char buf 'B';
  Buffer.add_string buf (string_of_int l)

(* [r1, r2, ...] *)
let add_regs buf regs =
  List.iteri
    (fun k r ->
      if k > 0 then Buffer.add_string buf ", ";
      add_reg buf r)
    regs

(* "  rD = " *)
let add_dst buf d =
  Buffer.add_string buf "  ";
  add_reg buf d;
  Buffer.add_string buf " = "

let print_instr buf i =
  let s = Buffer.add_string buf and reg = add_reg buf in
  (match i with
  | Instr.Const { dst; value } ->
    add_dst buf dst;
    s "const ";
    print_value buf value
  | Instr.Copy { dst; src } ->
    add_dst buf dst;
    s "copy ";
    reg src
  | Instr.Unop { op; dst; src } ->
    add_dst buf dst;
    s (Op.unop_name op);
    Buffer.add_char buf ' ';
    reg src
  | Instr.Binop { op; dst; a; b } ->
    add_dst buf dst;
    s (Op.binop_name op);
    Buffer.add_char buf ' ';
    reg a;
    s ", ";
    reg b
  | Instr.Load { dst; addr } ->
    add_dst buf dst;
    s "load ";
    reg addr
  | Instr.Store { addr; src } ->
    s "  store ";
    reg addr;
    s ", ";
    reg src
  | Instr.Alloca { dst; words; init } ->
    add_dst buf dst;
    s "alloca ";
    s (string_of_int words);
    s ", ";
    print_value buf init
  | Instr.Call { dst; callee; args } ->
    (match dst with Some d -> add_dst buf d | None -> s "  ");
    s "call ";
    s callee;
    Buffer.add_char buf '(';
    add_regs buf args;
    Buffer.add_char buf ')'
  | Instr.Phi { dst; args } ->
    add_dst buf dst;
    s "phi(";
    List.iteri
      (fun k (l, r) ->
        if k > 0 then s ", ";
        add_label buf l;
        s ": ";
        reg r)
      args;
    Buffer.add_char buf ')');
  Buffer.add_char buf '\n'

let print_terminator buf t =
  let s = Buffer.add_string buf in
  (match t with
  | Instr.Jump l ->
    s "  jump ";
    add_label buf l
  | Instr.Cbr { cond; ifso; ifnot } ->
    s "  cbr ";
    add_reg buf cond;
    s ", ";
    add_label buf ifso;
    s ", ";
    add_label buf ifnot
  | Instr.Ret (Some r) ->
    s "  return ";
    add_reg buf r
  | Instr.Ret None -> s "  return");
  Buffer.add_char buf '\n'

let print_routine buf (r : Routine.t) =
  let s = Buffer.add_string buf in
  s "routine ";
  s r.Routine.name;
  Buffer.add_char buf '(';
  add_regs buf r.Routine.params;
  s ") entry ";
  add_label buf (Cfg.entry r.Routine.cfg);
  s " regs ";
  s (string_of_int r.Routine.next_reg);
  s " {\n";
  Cfg.iter_blocks
    (fun b ->
      add_label buf b.Block.id;
      s ":\n";
      List.iter (print_instr buf) b.Block.instrs;
      print_terminator buf b.Block.term)
    r.Routine.cfg;
  s "}\n"

let print_program (prog : Program.t) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      print_routine buf r;
      Buffer.add_char buf '\n')
    (Program.routines prog);
  Buffer.contents buf

let routine_to_string r =
  let buf = Buffer.create 1024 in
  print_routine buf r;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

type pstate = { lines : string array; mutable lno : int }

let fail st fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line = st.lno + 1; message })) fmt

(* Split a line into tokens; punctuation (, ( ) { } :) become their own
   tokens, '=' its own token. *)
let tokenize_line line =
  let buf = Buffer.create 8 in
  let out = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' -> flush ()
      | ',' | '(' | ')' | '{' | '}' | ':' | '=' ->
        flush ();
        out := String.make 1 c :: !out
      | '#' -> flush ()  (* comment: handled by caller cutting the line *)
      | c -> Buffer.add_char buf c)
    line;
  flush ();
  List.rev !out

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let current_tokens st =
  if st.lno >= Array.length st.lines then None
  else Some (tokenize_line (strip_comment st.lines.(st.lno)))

let rec next_nonempty st =
  match current_tokens st with
  | None -> None
  | Some [] ->
    st.lno <- st.lno + 1;
    next_nonempty st
  | Some toks -> Some toks

let advance st = st.lno <- st.lno + 1

let parse_reg st tok =
  if String.length tok >= 2 && tok.[0] = 'r' then
    match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
    | Some n when n >= Ir_text.max_regs -> fail st "register %S above %d" tok (Ir_text.max_regs - 1)
    | Some n when n >= 0 -> n
    | _ -> fail st "bad register %S" tok
  else fail st "expected a register, got %S" tok

let parse_label st tok =
  if String.length tok >= 2 && tok.[0] = 'B' then
    match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
    | Some n when n > Ir_text.max_label -> fail st "label %S above %d" tok Ir_text.max_label
    | Some n when n >= 0 -> n
    | _ -> fail st "bad label %S" tok
  else fail st "expected a label, got %S" tok

let parse_value st tok =
  match int_of_string_opt tok with
  | Some i -> Value.I i
  | None -> begin
    match float_of_string_opt tok with
    | Some f -> Value.F f
    | None -> fail st "bad value literal %S" tok
  end

let unop_by_name = List.map (fun op -> (Op.unop_name op, op)) Op.all_unops

let binop_by_name = List.map (fun op -> (Op.binop_name op, op)) Op.all_binops

(* registers of a comma-separated list up to ")" *)
let parse_reg_list st toks =
  let rec go acc = function
    | ")" :: rest -> (List.rev acc, rest)
    | "," :: rest -> go acc rest
    | tok :: rest -> go (parse_reg st tok :: acc) rest
    | [] -> fail st "unterminated register list"
  in
  go [] toks

let parse_instr_line st toks =
  match toks with
  | [ "store"; a; ","; v ] -> Instr.Store { addr = parse_reg st a; src = parse_reg st v }
  | "call" :: callee :: "(" :: rest ->
    let args, _ = parse_reg_list st rest in
    Instr.Call { dst = None; callee; args }
  | dst :: "=" :: rest -> begin
    let dst = parse_reg st dst in
    match rest with
    | [ "const"; v ] -> Instr.Const { dst; value = parse_value st v }
    | [ "copy"; s ] -> Instr.Copy { dst; src = parse_reg st s }
    | [ "load"; a ] -> Instr.Load { dst; addr = parse_reg st a }
    | [ "alloca"; n; ","; v ] -> begin
      match int_of_string_opt n with
      | Some words -> Instr.Alloca { dst; words; init = parse_value st v }
      | None -> fail st "bad alloca size %S" n
    end
    | "call" :: callee :: "(" :: rest ->
      let args, _ = parse_reg_list st rest in
      Instr.Call { dst = Some dst; callee; args }
    | "phi" :: "(" :: rest ->
      let rec go acc = function
        | ")" :: _ -> List.rev acc
        | "," :: rest -> go acc rest
        | l :: ":" :: r :: rest -> go ((parse_label st l, parse_reg st r) :: acc) rest
        | _ -> fail st "malformed phi arguments"
      in
      Instr.Phi { dst; args = go [] rest }
    | [ opname; a ] when List.mem_assoc opname unop_by_name ->
      Instr.Unop { op = List.assoc opname unop_by_name; dst; src = parse_reg st a }
    | [ opname; a; ","; b ] when List.mem_assoc opname binop_by_name ->
      Instr.Binop
        { op = List.assoc opname binop_by_name; dst; a = parse_reg st a; b = parse_reg st b }
    | _ -> fail st "cannot parse instruction %s" (String.concat " " toks)
  end
  | _ -> fail st "cannot parse instruction %s" (String.concat " " toks)

let parse_terminator st toks =
  match toks with
  | [ "jump"; l ] -> Instr.Jump (parse_label st l)
  | [ "cbr"; c; ","; l1; ","; l2 ] ->
    Instr.Cbr { cond = parse_reg st c; ifso = parse_label st l1; ifnot = parse_label st l2 }
  | [ "return" ] -> Instr.Ret None
  | [ "return"; r ] -> Instr.Ret (Some (parse_reg st r))
  | _ -> fail st "cannot parse terminator %s" (String.concat " " toks)

let is_terminator = function
  | ("jump" | "cbr" | "return") :: _ -> true
  | _ -> false

let parse_routine ~validate st header =
  (* routine NAME ( params ) entry Bn regs N { *)
  let name, rest =
    match header with
    | "routine" :: name :: "(" :: rest -> (name, rest)
    | _ -> fail st "expected a routine header"
  in
  let params, rest = parse_reg_list st rest in
  let entry, next_reg =
    match rest with
    | [ "entry"; l; "regs"; n; "{" ] -> begin
      match int_of_string_opt n with
      | Some n when n > Ir_text.max_regs ->
        fail st "register count %d above %d" n Ir_text.max_regs
      | Some n when n >= 0 -> (parse_label st l, n)
      | _ -> fail st "bad register count %S" n
    end
    | _ -> fail st "malformed routine header tail: %s" (String.concat " " rest)
  in
  advance st;
  (* Collect blocks: (id, instrs, term) *)
  let blocks = ref [] in
  let rec parse_blocks () =
    match next_nonempty st with
    | None -> fail st "unterminated routine %s" name
    | Some [ "}" ] -> advance st
    | Some [ label; ":" ] ->
      let id = parse_label st label in
      advance st;
      let instrs = ref [] in
      let rec body () =
        match next_nonempty st with
        | None -> fail st "unterminated block B%d" id
        | Some toks when is_terminator toks ->
          let term = parse_terminator st toks in
          advance st;
          blocks := (id, List.rev !instrs, term) :: !blocks
        | Some toks ->
          instrs := parse_instr_line st toks :: !instrs;
          advance st;
          body ()
      in
      body ();
      parse_blocks ()
    | Some toks -> fail st "expected a block label, got %s" (String.concat " " toks)
  in
  parse_blocks ();
  let blocks = List.rev !blocks in
  if blocks = [] then fail st "routine %s has no blocks" name;
  let max_id = List.fold_left (fun acc (id, _, _) -> max acc id) 0 blocks in
  let cfg = Cfg.create () in
  for _ = 0 to max_id do
    ignore (Cfg.add_block ~term:(Instr.Ret None) cfg)
  done;
  let listed = Array.make (max_id + 1) false in
  List.iter
    (fun (id, instrs, term) ->
      if listed.(id) then fail st "duplicate block B%d" id;
      listed.(id) <- true;
      let b = Cfg.block cfg id in
      b.Block.instrs <- instrs;
      b.Block.term <- term)
    blocks;
  if entry > max_id || not listed.(entry) then fail st "entry B%d is not defined" entry;
  Cfg.set_entry cfg entry;
  (* blocks never listed are holes (removed blocks in the source CFG) *)
  for id = 0 to max_id do
    if (not listed.(id)) && id <> entry then Cfg.remove_block cfg id
  done;
  let r = Routine.create ~name ~params ~cfg ~next_reg in
  if validate then Routine.validate r;
  r

let parse_program ?(validate = true) text =
  let st = { lines = Array.of_list (String.split_on_char '\n' text); lno = 0 } in
  let routines = ref [] in
  let rec go () =
    match next_nonempty st with
    | None -> ()
    | Some header ->
      (* Calls, type inference and the interpreter all resolve a routine
         by name, so a second routine under one name is an error, as it
         is in the frontend. *)
      (match header with
      | "routine" :: name :: _
        when List.exists (fun (r : Routine.t) -> r.Routine.name = name) !routines ->
        fail st "duplicate routine %s" name
      | _ -> ());
      routines := parse_routine ~validate st header :: !routines;
      go ()
  in
  go ();
  Program.create (List.rev !routines)
