(** Minimal JSON tree: encoder for the telemetry exporters, parser for
    validating them back. See the interface. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

let plain c = c <> '"' && c <> '\\' && Char.code c >= 0x20

(* Append [s] escaped, copying each run of plain bytes in one go. *)
let add_escaped buf s =
  let n = String.length s in
  let copy start i = if i > start then Buffer.add_substring buf s start (i - start) in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if not (plain c) then begin
      copy !start i;
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
      start := i + 1
    end
  done;
  copy !start n

let escape s =
  if String.for_all plain s then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    add_escaped buf s;
    Buffer.contents buf
  end

(* Integral values print as integers; everything else keeps three decimals
   (microsecond timestamps at nanosecond resolution need exactly three). *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.3f" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then Buffer.add_string buf (float_repr f)
    else Buffer.add_string buf "null"
  | Str s ->
    Buffer.add_char buf '"';
    add_escaped buf s;
    Buffer.add_char buf '"'
  | Arr xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        add_escaped buf k;
        Buffer.add_string buf "\":";
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

exception Fail of string * int

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let fail c msg = raise (Fail (msg, c.pos))

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected %C" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

let hex_digit c ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> fail c "bad \\u escape"

(* Strings are read a run at a time: a run of plain bytes is found by
   index and copied whole, so a string with no escapes is one [String.sub]
   and no [Buffer]. *)
let parse_string c =
  expect c '"';
  let src = c.src in
  let n = String.length src in
  let rec run_end i = if i < n && plain (String.unsafe_get src i) then run_end (i + 1) else i in
  let rec go buf =
    let start = c.pos in
    let stop = run_end start in
    c.pos <- stop;
    if stop >= n then fail c "unterminated string";
    match src.[stop] with
    | '"' -> (
      advance c;
      match buf with
      | None -> String.sub src start (stop - start)
      | Some buf ->
        Buffer.add_substring buf src start (stop - start);
        Buffer.contents buf)
    | '\\' ->
      let buf =
        match buf with Some b -> b | None -> Buffer.create (stop - start + 16)
      in
      Buffer.add_substring buf src start (stop - start);
      advance c;
      (match peek c with
      | Some '"' -> Buffer.add_char buf '"'; advance c
      | Some '\\' -> Buffer.add_char buf '\\'; advance c
      | Some '/' -> Buffer.add_char buf '/'; advance c
      | Some 'b' -> Buffer.add_char buf '\b'; advance c
      | Some 'f' -> Buffer.add_char buf '\012'; advance c
      | Some 'n' -> Buffer.add_char buf '\n'; advance c
      | Some 'r' -> Buffer.add_char buf '\r'; advance c
      | Some 't' -> Buffer.add_char buf '\t'; advance c
      | Some 'u' ->
        advance c;
        if c.pos + 4 > n then fail c "bad \\u escape";
        let code =
          List.fold_left
            (fun acc i -> (acc * 16) + hex_digit c src.[c.pos + i])
            0 [ 0; 1; 2; 3 ]
        in
        c.pos <- c.pos + 4;
        (match Uchar.of_int code with
        | u -> Buffer.add_utf_8_uchar buf u
        | exception Invalid_argument _ -> fail c "bad \\u escape")
      | _ -> fail c "bad escape");
      go (Some buf)
    | _ -> fail c "raw control character in string"
  in
  go None

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  let rec go () =
    match peek c with
    | Some ('0' .. '9' | '-' | '+') ->
      advance c;
      go ()
    | Some ('.' | 'e' | 'E') ->
      is_float := true;
      advance c;
      go ()
    | _ -> ()
  in
  go ();
  let s = String.sub c.src start (c.pos - start) in
  if !is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail c "bad number"
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
      (* out of int range: fall back to float *)
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail c "bad number")

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> Str (parse_string c)
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      Arr []
    end
    else begin
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          items (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> fail c "expected ',' or ']'"
      in
      Arr (items [])
    end
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let field () =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        (k, v)
      in
      let rec fields acc =
        let kv = field () in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields (kv :: acc)
        | Some '}' ->
          advance c;
          List.rev (kv :: acc)
        | _ -> fail c "expected ',' or '}'"
      in
      Obj (fields [])
    end
  | Some ch -> fail c (Printf.sprintf "unexpected %C" ch)

let parse s =
  let c = { src = s; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos <> String.length s then fail c "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (msg, pos) -> Error (Printf.sprintf "%s at offset %d" msg pos)
