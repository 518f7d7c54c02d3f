(** Unambiguous textual ILOC: a parse/print pair that round-trips.

    [Pp] prints the paper-flavoured human syntax ([r2 <- r0 + r1]) where
    int and float additions look alike; this module prints named opcodes
    and exact (hexadecimal) float literals so that [parse (print p)]
    reconstructs [p] exactly. Used by the CLI's [--format text], by golden
    tests, and wherever a test wants to state a routine concisely.

    Grammar (line oriented; [#] starts a comment):

    {v
      program  := routine*
      routine  := "routine" name "(" regs ")" "entry" label "regs" int "{"
                    block* "}"
      block    := label ":" instr* terminator
      instr    := reg "=" "const" value
                | reg "=" "copy" reg
                | reg "=" unop reg
                | reg "=" binop reg "," reg
                | reg "=" "load" reg
                | "store" reg "," reg            (address, value)
                | reg "=" "alloca" int "," value
                | [reg "="] "call" name "(" regs ")"
                | reg "=" "phi" "(" (label ":" reg),* ")"
      term     := "jump" label
                | "cbr" reg "," label "," label
                | "return" [reg]
    v} *)

exception Parse_error of { line : int; message : string }

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let print_value buf v =
  Buffer.add_string buf (Value.to_string v)

let reg_name r = Printf.sprintf "r%d" r

let print_instr buf i =
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  match i with
  | Instr.Const { dst; value } ->
    p "  %s = const " (reg_name dst);
    print_value buf value;
    p "\n"
  | Instr.Copy { dst; src } -> p "  %s = copy %s\n" (reg_name dst) (reg_name src)
  | Instr.Unop { op; dst; src } ->
    p "  %s = %s %s\n" (reg_name dst) (Op.unop_name op) (reg_name src)
  | Instr.Binop { op; dst; a; b } ->
    p "  %s = %s %s, %s\n" (reg_name dst) (Op.binop_name op) (reg_name a) (reg_name b)
  | Instr.Load { dst; addr } -> p "  %s = load %s\n" (reg_name dst) (reg_name addr)
  | Instr.Store { addr; src } -> p "  store %s, %s\n" (reg_name addr) (reg_name src)
  | Instr.Alloca { dst; words; init } ->
    p "  %s = alloca %d, " (reg_name dst) words;
    print_value buf init;
    p "\n"
  | Instr.Call { dst; callee; args } ->
    (match dst with Some d -> p "  %s = call %s(" (reg_name d) callee | None -> p "  call %s(" callee);
    p "%s)\n" (String.concat ", " (List.map reg_name args))
  | Instr.Phi { dst; args } ->
    p "  %s = phi(%s)\n" (reg_name dst)
      (String.concat ", " (List.map (fun (l, r) -> Printf.sprintf "B%d: %s" l (reg_name r)) args))

let print_terminator buf t =
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  match t with
  | Instr.Jump l -> p "  jump B%d\n" l
  | Instr.Cbr { cond; ifso; ifnot } -> p "  cbr %s, B%d, B%d\n" (reg_name cond) ifso ifnot
  | Instr.Ret (Some r) -> p "  return %s\n" (reg_name r)
  | Instr.Ret None -> p "  return\n"

let print_routine buf (r : Routine.t) =
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "routine %s(%s) entry B%d regs %d {\n" r.Routine.name
    (String.concat ", " (List.map reg_name r.Routine.params))
    (Cfg.entry r.Routine.cfg) r.Routine.next_reg;
  Cfg.iter_blocks
    (fun b ->
      p "B%d:\n" b.Block.id;
      List.iter (print_instr buf) b.Block.instrs;
      print_terminator buf b.Block.term)
    r.Routine.cfg;
  p "}\n"

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
    | Some n when n >= 0 -> n
    | _ -> fail st "bad register %S" tok
  else fail st "expected a register, got %S" tok

let parse_label st tok =
  if String.length tok >= 2 && tok.[0] = 'B' then
    match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
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
      | Some n -> (parse_label st l, n)
      | None -> fail st "bad register count %S" n
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
