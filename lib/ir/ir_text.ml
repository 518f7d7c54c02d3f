(** Unambiguous textual ILOC: a parse/print pair that round-trips.

    [Pp] prints the paper-flavoured human syntax ([r2 <- r0 + r1]) where
    int and float additions look alike; this module prints named opcodes
    and exact (hexadecimal) float literals so that [parse (print p)]
    reconstructs [p] exactly. Used by the CLI's [--format text], by golden
    tests, by the compile service (every inline-ILOC job is parsed, and
    every routine printed to form its cache key), and wherever a test
    wants to state a routine concisely.

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
    v}

    The printer writes non-negative ints digit by digit straight into
    the buffer; floats go through [Value.to_string] ([%h]).

    The parser is one scanner that walks the text with an index. Each
    line's tokens are (start, length) spans in one reused array, and
    keywords, opcodes and punctuation are compared in place, so the
    success path builds no token lists and no per-token strings: only
    routine names, callee names and value literals are copied out. A
    [Parse_error] renders its tokens as strings, joined by spaces. *)

exception Parse_error of { line : int; message : string }

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_digits buf n else Buffer.add_string buf (string_of_int n)

let add_value buf = function
  | Value.I i -> add_int buf i
  | Value.F _ as v -> Buffer.add_string buf (Value.to_string v)

let add_reg buf r =
  Buffer.add_char buf 'r';
  add_int buf r

let add_label buf l =
  Buffer.add_char buf 'B';
  add_int buf l

(* [r1, r2, ...] *)
let rec add_regs buf = function
  | [] -> ()
  | [ r ] -> add_reg buf r
  | r :: rest ->
    add_reg buf r;
    Buffer.add_string buf ", ";
    add_regs buf rest

(* [B1: r1, B2: r2, ...] *)
let rec add_phi_args buf = function
  | [] -> ()
  | (l, r) :: rest ->
    add_label buf l;
    Buffer.add_string buf ": ";
    add_reg buf r;
    if rest <> [] then Buffer.add_string buf ", ";
    add_phi_args buf rest

(* "  rD = " *)
let add_dst buf d =
  Buffer.add_string buf "  ";
  add_reg buf d;
  Buffer.add_string buf " = "

let print_instr buf i =
  (match i with
  | Instr.Const { dst; value } ->
    add_dst buf dst;
    Buffer.add_string buf "const ";
    add_value buf value
  | Instr.Copy { dst; src } ->
    add_dst buf dst;
    Buffer.add_string buf "copy ";
    add_reg buf src
  | Instr.Unop { op; dst; src } ->
    add_dst buf dst;
    Buffer.add_string buf (Op.unop_name op);
    Buffer.add_char buf ' ';
    add_reg buf src
  | Instr.Binop { op; dst; a; b } ->
    add_dst buf dst;
    Buffer.add_string buf (Op.binop_name op);
    Buffer.add_char buf ' ';
    add_reg buf a;
    Buffer.add_string buf ", ";
    add_reg buf b
  | Instr.Load { dst; addr } ->
    add_dst buf dst;
    Buffer.add_string buf "load ";
    add_reg buf addr
  | Instr.Store { addr; src } ->
    Buffer.add_string buf "  store ";
    add_reg buf addr;
    Buffer.add_string buf ", ";
    add_reg buf src
  | Instr.Alloca { dst; words; init } ->
    add_dst buf dst;
    Buffer.add_string buf "alloca ";
    add_int buf words;
    Buffer.add_string buf ", ";
    add_value buf init
  | Instr.Call { dst; callee; args } ->
    (match dst with Some d -> add_dst buf d | None -> Buffer.add_string buf "  ");
    Buffer.add_string buf "call ";
    Buffer.add_string buf callee;
    Buffer.add_char buf '(';
    add_regs buf args;
    Buffer.add_char buf ')'
  | Instr.Phi { dst; args } ->
    add_dst buf dst;
    Buffer.add_string buf "phi(";
    add_phi_args buf args;
    Buffer.add_char buf ')');
  Buffer.add_char buf '\n'

let rec print_instrs buf = function
  | [] -> ()
  | i :: rest ->
    print_instr buf i;
    print_instrs buf rest

let print_terminator buf t =
  (match t with
  | Instr.Jump l ->
    Buffer.add_string buf "  jump ";
    add_label buf l
  | Instr.Cbr { cond; ifso; ifnot } ->
    Buffer.add_string buf "  cbr ";
    add_reg buf cond;
    Buffer.add_string buf ", ";
    add_label buf ifso;
    Buffer.add_string buf ", ";
    add_label buf ifnot
  | Instr.Ret (Some r) ->
    Buffer.add_string buf "  return ";
    add_reg buf r
  | Instr.Ret None -> Buffer.add_string buf "  return");
  Buffer.add_char buf '\n'

let print_routine buf (r : Routine.t) =
  Buffer.add_string buf "routine ";
  Buffer.add_string buf r.Routine.name;
  Buffer.add_char buf '(';
  add_regs buf r.Routine.params;
  Buffer.add_string buf ") entry ";
  add_label buf (Cfg.entry r.Routine.cfg);
  Buffer.add_string buf " regs ";
  add_int buf r.Routine.next_reg;
  Buffer.add_string buf " {\n";
  Cfg.iter_blocks
    (fun b ->
      add_label buf b.Block.id;
      Buffer.add_string buf ":\n";
      print_instrs buf b.Block.instrs;
      print_terminator buf b.Block.term)
    r.Routine.cfg;
  Buffer.add_string buf "}\n"

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
(* Scanning                                                            *)

(* The text, the current line ([lno] is 0-based; [pos] its first byte,
   [eol] its ['\n'] or the end of the text) and that line's [ntok]
   tokens: token [k] starts at [spans.(2k)] and is [spans.(2k+1)] bytes
   long. The array is reused from line to line and grows by doubling. *)
type scanner = {
  text : string;
  mutable lno : int;
  mutable pos : int;
  mutable eol : int;
  mutable spans : int array;
  mutable ntok : int;
}

let fail sc fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line = sc.lno + 1; message })) fmt

let push sc start len =
  let k = 2 * sc.ntok in
  if k = Array.length sc.spans then sc.spans <- Array.append sc.spans (Array.make k 0);
  Array.unsafe_set sc.spans k start;
  Array.unsafe_set sc.spans (k + 1) len;
  sc.ntok <- sc.ntok + 1

(* Tokenize from byte [i] to the end of the line, whose ['\n'] (or the
   end of the text) is returned; [tok] is the start of the token being
   read, or -1. Tokens split at space and tab and at the punctuation
   [, ( ) { } : =], which is a token of its own; [#] ends the line's
   tokens; every other byte, ['\r'] included, belongs to a token. *)
let rec scan sc i tok =
  let text = sc.text in
  if i >= String.length text then begin
    if tok >= 0 then push sc tok (i - tok);
    i
  end
  else
    match String.unsafe_get text i with
    | '\n' ->
      if tok >= 0 then push sc tok (i - tok);
      i
    | ' ' | '\t' ->
      if tok >= 0 then push sc tok (i - tok);
      scan sc (i + 1) (-1)
    | ',' | '(' | ')' | '{' | '}' | ':' | '=' ->
      if tok >= 0 then push sc tok (i - tok);
      push sc i 1;
      scan sc (i + 1) (-1)
    | '#' -> (
      if tok >= 0 then push sc tok (i - tok);
      match String.index_from_opt text i '\n' with
      | Some j -> j
      | None -> String.length text)
    | _ -> scan sc (i + 1) (if tok >= 0 then tok else i)

let advance sc =
  sc.pos <- sc.eol + 1;
  sc.lno <- sc.lno + 1

(* Tokenize the current line, skipping lines without tokens; false at
   the end of the text. The line stays current until [advance]. *)
let rec next_nonempty sc =
  if sc.pos > String.length sc.text then false
  else begin
    sc.ntok <- 0;
    sc.eol <- scan sc sc.pos (-1);
    sc.ntok > 0 || (advance sc; next_nonempty sc)
  end

let tok_start sc k = Array.unsafe_get sc.spans (2 * k)

let tok_len sc k = Array.unsafe_get sc.spans ((2 * k) + 1)

(* Token [k] (which must exist) is [s]. *)
let tok_is sc k s =
  let len = String.length s in
  tok_len sc k = len
  &&
  let start = tok_start sc k in
  let rec eq j =
    j = len || (String.unsafe_get sc.text (start + j) = String.unsafe_get s j && eq (j + 1))
  in
  eq 0

let tok_char sc k c = tok_len sc k = 1 && String.unsafe_get sc.text (tok_start sc k) = c

let tok_string sc k = String.sub sc.text (tok_start sc k) (tok_len sc k)

(* Tokens [k..] as the error messages show them. *)
let tokens_from sc k = String.concat " " (List.init (sc.ntok - k) (fun j -> tok_string sc (k + j)))

(* The plain decimal of [len] bytes at [start] (at most 18 digits, so it
   cannot overflow), or -1 when the bytes are something else. *)
let decimal text start len =
  let rec go j acc =
    if j = len then acc
    else
      match String.unsafe_get text (start + j) with
      | '0' .. '9' as c -> go (j + 1) ((acc * 10) + Char.code c - 48)
      | _ -> -1
  in
  if len < 1 || len > 18 then -1 else go 0 0

(* Token [k] from byte [skip] on as an int: a plain decimal is read in
   place, anything else goes through [int_of_string_opt]. *)
let int_at sc k skip =
  let start = tok_start sc k + skip and len = tok_len sc k - skip in
  match decimal sc.text start len with
  | -1 -> int_of_string_opt (String.sub sc.text start len)
  | n -> Some n

let max_label = 65_535

let max_regs = 1 lsl 20

(* A register or label: [prefix] and an int in [0, limit]. *)
let numbered sc k prefix ~limit ~what =
  if tok_len sc k >= 2 && String.unsafe_get sc.text (tok_start sc k) = prefix then
    match int_at sc k 1 with
    | Some n when n >= 0 && n <= limit -> n
    | Some n when n > limit -> fail sc "%s %S above %d" what (tok_string sc k) limit
    | _ -> fail sc "bad %s %S" what (tok_string sc k)
  else fail sc "expected a %s, got %S" what (tok_string sc k)

let reg sc k = numbered sc k 'r' ~limit:(max_regs - 1) ~what:"register"

let label sc k = numbered sc k 'B' ~limit:max_label ~what:"label"

(* An int literal, else a float literal; plain decimals (with an
   optional [-]) are read in place. *)
let value sc k =
  let start = tok_start sc k and len = tok_len sc k in
  let neg = String.unsafe_get sc.text start = '-' in
  let skip = if neg then 1 else 0 in
  match decimal sc.text (start + skip) (len - skip) with
  | -1 -> (
    let s = tok_string sc k in
    match int_of_string_opt s with
    | Some i -> Value.I i
    | None -> (
      match float_of_string_opt s with
      | Some f -> Value.F f
      | None -> fail sc "bad value literal %S" s))
  | n -> Value.I (if neg then -n else n)

(* Opcodes bucketed by name length, each op pre-wrapped in [Some]. *)
let op_table name ops =
  let longest = List.fold_left (fun m op -> max m (String.length (name op))) 0 ops in
  let table = Array.make (longest + 1) [||] in
  List.iter
    (fun op ->
      let n = String.length (name op) in
      table.(n) <- Array.append table.(n) [| (name op, Some op) |])
    ops;
  table

let unops = op_table Op.unop_name Op.all_unops

let binops = op_table Op.binop_name Op.all_binops

let find_op table sc k =
  let len = tok_len sc k in
  if len >= Array.length table then None
  else
    let bucket = table.(len) in
    let rec go j =
      if j = Array.length bucket then None
      else
        let name, op = bucket.(j) in
        if tok_is sc k name then op else go (j + 1)
    in
    go 0

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

(* Registers of a comma-separated list from token [k] up to ")", and the
   index of the token after it. *)
let reg_list sc k =
  let rec go acc k =
    if k >= sc.ntok then fail sc "unterminated register list"
    else if tok_char sc k ')' then (List.rev acc, k + 1)
    else if tok_char sc k ',' then go acc (k + 1)
    else go (reg sc k :: acc) (k + 1)
  in
  go [] k

let rec phi_args sc acc k =
  if k >= sc.ntok then fail sc "malformed phi arguments"
  else if tok_char sc k ')' then List.rev acc
  else if tok_char sc k ',' then phi_args sc acc (k + 1)
  else if k + 2 < sc.ntok && tok_char sc (k + 1) ':' then begin
    let r = reg sc (k + 2) in
    let l = label sc k in
    phi_args sc ((l, r) :: acc) (k + 3)
  end
  else fail sc "malformed phi arguments"

let cannot_parse sc = fail sc "cannot parse instruction %s" (tokens_from sc 0)

(* [call name ( regs )] from token [k]; tokens after the ")" are ignored. *)
let is_call sc k = sc.ntok - k >= 3 && tok_is sc k "call" && tok_char sc (k + 2) '('

let call sc k dst =
  let callee = tok_string sc (k + 1) in
  let args, _ = reg_list sc (k + 3) in
  Instr.Call { dst; callee; args }

(* [rD = ...]: the operation's tokens start at 2. *)
let assignment sc =
  let dst = reg sc 0 in
  let n = sc.ntok - 2 in
  if n = 2 && tok_is sc 2 "const" then Instr.Const { dst; value = value sc 3 }
  else if n = 2 && tok_is sc 2 "copy" then Instr.Copy { dst; src = reg sc 3 }
  else if n = 2 && tok_is sc 2 "load" then Instr.Load { dst; addr = reg sc 3 }
  else if n = 4 && tok_is sc 2 "alloca" && tok_char sc 4 ',' then
    match int_at sc 3 0 with
    | Some words -> Instr.Alloca { dst; words; init = value sc 5 }
    | None -> fail sc "bad alloca size %S" (tok_string sc 3)
  else if is_call sc 2 then call sc 2 (Some dst)
  else if n >= 2 && tok_is sc 2 "phi" && tok_char sc 3 '(' then
    Instr.Phi { dst; args = phi_args sc [] 4 }
  else if n = 2 then
    match find_op unops sc 2 with
    | Some op -> Instr.Unop { op; dst; src = reg sc 3 }
    | None -> cannot_parse sc
  else if n = 4 && tok_char sc 4 ',' then
    match find_op binops sc 2 with
    | Some op ->
      let b = reg sc 5 in
      let a = reg sc 3 in
      Instr.Binop { op; dst; a; b }
    | None -> cannot_parse sc
  else cannot_parse sc

let parse_instr sc =
  if sc.ntok = 4 && tok_is sc 0 "store" && tok_char sc 2 ',' then begin
    let src = reg sc 3 in
    let addr = reg sc 1 in
    Instr.Store { addr; src }
  end
  else if is_call sc 0 then call sc 0 None
  else if sc.ntok >= 2 && tok_char sc 1 '=' then assignment sc
  else cannot_parse sc

let is_terminator sc = tok_is sc 0 "jump" || tok_is sc 0 "cbr" || tok_is sc 0 "return"

let parse_terminator sc =
  let n = sc.ntok in
  if n = 2 && tok_is sc 0 "jump" then Instr.Jump (label sc 1)
  else if n = 6 && tok_is sc 0 "cbr" && tok_char sc 2 ',' && tok_char sc 4 ',' then begin
    let ifnot = label sc 5 in
    let ifso = label sc 3 in
    let cond = reg sc 1 in
    Instr.Cbr { cond; ifso; ifnot }
  end
  else if n = 1 && tok_is sc 0 "return" then Instr.Ret None
  else if n = 2 && tok_is sc 0 "return" then Instr.Ret (Some (reg sc 1))
  else fail sc "cannot parse terminator %s" (tokens_from sc 0)

(* The current line is the routine's header. *)
let parse_routine ~validate sc =
  (* routine NAME ( params ) entry Bn regs N { *)
  if not (sc.ntok >= 3 && tok_is sc 0 "routine" && tok_char sc 2 '(') then
    fail sc "expected a routine header";
  let name = tok_string sc 1 in
  let params, k = reg_list sc 3 in
  if
    not
      (sc.ntok - k = 5
      && tok_is sc k "entry"
      && tok_is sc (k + 2) "regs"
      && tok_char sc (k + 4) '{')
  then fail sc "malformed routine header tail: %s" (tokens_from sc k);
  let next_reg =
    match int_at sc (k + 3) 0 with
    | Some n when n > max_regs -> fail sc "register count %d above %d" n max_regs
    | Some n when n >= 0 -> n
    | _ -> fail sc "bad register count %S" (tok_string sc (k + 3))
  in
  let entry = label sc (k + 1) in
  advance sc;
  (* Collect blocks: (id, instrs, term) *)
  let rec parse_blocks blocks =
    if not (next_nonempty sc) then fail sc "unterminated routine %s" name
    else if sc.ntok = 1 && tok_char sc 0 '}' then begin
      advance sc;
      List.rev blocks
    end
    else if sc.ntok = 2 && tok_char sc 1 ':' then begin
      let id = label sc 0 in
      advance sc;
      let rec body instrs =
        if not (next_nonempty sc) then fail sc "unterminated block B%d" id
        else if is_terminator sc then begin
          let term = parse_terminator sc in
          advance sc;
          (id, List.rev instrs, term)
        end
        else begin
          let i = parse_instr sc in
          advance sc;
          body (i :: instrs)
        end
      in
      let block = body [] in
      parse_blocks (block :: blocks)
    end
    else fail sc "expected a block label, got %s" (tokens_from sc 0)
  in
  let blocks = parse_blocks [] in
  if blocks = [] then fail sc "routine %s has no blocks" name;
  let max_id = List.fold_left (fun acc (id, _, _) -> max acc id) 0 blocks in
  let cfg = Cfg.create () in
  for _ = 0 to max_id do
    ignore (Cfg.add_block ~term:(Instr.Ret None) cfg)
  done;
  let listed = Array.make (max_id + 1) false in
  List.iter
    (fun (id, instrs, term) ->
      if listed.(id) then fail sc "duplicate block B%d" id;
      listed.(id) <- true;
      let b = Cfg.block cfg id in
      b.Block.instrs <- instrs;
      b.Block.term <- term)
    blocks;
  if entry > max_id || not listed.(entry) then fail sc "entry B%d is not defined" entry;
  Cfg.set_entry cfg entry;
  (* blocks never listed are holes (removed blocks in the source CFG) *)
  for id = 0 to max_id do
    if (not listed.(id)) && id <> entry then Cfg.remove_block cfg id
  done;
  let r = Routine.create ~name ~params ~cfg ~next_reg in
  if validate then Routine.validate r;
  r

let parse_program ?(validate = true) text =
  let sc = { text; lno = 0; pos = 0; eol = 0; spans = Array.make 32 0; ntok = 0 } in
  let rec go routines =
    if not (next_nonempty sc) then Program.create (List.rev routines)
    else begin
      (* Calls, type inference and the interpreter all resolve a routine
         by name, so a second routine under one name is an error, as it
         is in the frontend. *)
      if
        sc.ntok >= 2
        && tok_is sc 0 "routine"
        && List.exists (fun (r : Routine.t) -> tok_is sc 1 r.Routine.name) routines
      then fail sc "duplicate routine %s" (tok_string sc 1);
      go (parse_routine ~validate sc :: routines)
    end
  in
  go []
