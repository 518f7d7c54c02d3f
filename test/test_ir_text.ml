(** Tests for [Epre_ir.Ir_text]: the textual ILOC format round-trips. *)

open Epre_ir

let text_roundtrip_program prog =
  let text = Ir_text.print_program prog in
  let prog' = Ir_text.parse_program text in
  Alcotest.(check string) "round trip is stable" text (Ir_text.print_program prog')

let test_roundtrip_simple () =
  let prog =
    Helpers.compile
      {|
fn f(x: int, a: float[4]): float {
  var s: float;
  var i: int;
  for i = 1 to x {
    s = s + a[1] * 2.5;
    a[2] = s;
  }
  emit(s);
  return s;
}
|}
  in
  text_roundtrip_program prog

let test_roundtrip_preserves_semantics () =
  let w = Option.get (Epre_workloads.Workloads.find "spline") in
  let prog = Epre_workloads.Workloads.compile w in
  let prog' = Ir_text.parse_program (Ir_text.print_program prog) in
  Helpers.check_same_behaviour ~what:"text round trip" prog prog'

let test_roundtrip_after_optimization () =
  (* Optimized CFGs have removed blocks (holes) and float constants; the
     format must carry them. *)
  let w = Option.get (Epre_workloads.Workloads.find "fmin") in
  let prog = Epre_workloads.Workloads.compile w in
  let p, _ = Epre.Pipeline.optimized_copy ~level:Epre.Pipeline.Distribution prog in
  text_roundtrip_program p;
  let p' = Ir_text.parse_program (Ir_text.print_program p) in
  Helpers.check_same_behaviour ~what:"optimized round trip" p p'

let test_roundtrip_ssa_form () =
  let r = Program.find_exn (Helpers.compile "fn f(n: int): int { var s: int; var i: int; for i = 1 to n { s = s + i; } return s; }") "f" in
  ignore (Epre_ssa.Ssa.build r);
  let text = Ir_text.routine_to_string r in
  let prog' = Ir_text.parse_program text in
  let r' = Program.find_exn prog' "f" in
  Alcotest.(check string) "phi round trip" text (Ir_text.routine_to_string r')

let test_parse_concise_source () =
  (* The format doubles as a concise way to write IR tests. *)
  let text =
    {|
routine double(r0) entry B0 regs 3 {
B0:
  r1 = const 2          # the multiplier
  r2 = mul r0, r1
  return r2
}
|}
  in
  let prog = Ir_text.parse_program text in
  Alcotest.(check int) "semantics" 14
    (Helpers.run_int ~entry:"double" ~args:[ Value.I 7 ] prog)

let test_parse_float_exactness () =
  let v = 0.1 +. 0.2 in
  let b = Builder.start ~name:"f" ~nparams:0 in
  let c = Builder.float b v in
  Builder.ret b (Some c);
  let prog = Program.create [ Builder.finish b ] in
  let prog' = Ir_text.parse_program (Ir_text.print_program prog) in
  Alcotest.(check bool) "bit-exact float constant" true
    (Float.equal (Helpers.run_float ~entry:"f" prog) (Helpers.run_float ~entry:"f" prog'))

let test_parse_errors () =
  let check_error text fragment =
    try
      ignore (Ir_text.parse_program text);
      Alcotest.failf "expected parse error mentioning %S" fragment
    with Ir_text.Parse_error { message; _ } ->
      if not (Helpers.contains_substring ~needle:fragment message) then
        Alcotest.failf "error %S does not mention %S" message fragment
  in
  check_error "routine f() entry B0 regs 0 {\nB0:\n  r0 = bogus r1\n  return\n}" "cannot parse";
  check_error "routine f() entry B5 regs 0 {\nB0:\n  return\n}" "entry B5";
  check_error "routine f() entry B0 regs 0 {\nB0:\n  return\nB0:\n  return\n}" "duplicate block";
  check_error "routine f() entry B0 regs 0 {\nB0:\n  jump Bx\n}" "bad label"

(* [f] twice, first returning a float, then an int; [main] calls [f].
   The interpreter runs the first [f], while type inference keyed by name
   would merge the two into spurious T006/T011 errors. *)
let duplicate_routine_iloc =
  String.concat "\n"
    [ "routine f() entry B0 regs 1 {"; "B0:"; "  r0 = const 0x1.8p+0"; "  return r0"; "}"; "";
      "routine f() entry B0 regs 1 {"; "B0:"; "  r0 = const 2"; "  return r0"; "}"; "";
      "routine main() entry B0 regs 1 {"; "B0:"; "  r0 = call f()"; "  return r0"; "}" ]

let test_parse_duplicate_routine () =
  match Ir_text.parse_program duplicate_routine_iloc with
  | _ -> Alcotest.fail "a second routine f was accepted"
  | exception Ir_text.Parse_error { line; message } ->
    Alcotest.(check int) "the second header's line" 7 line;
    Alcotest.(check string) "message" "duplicate routine f" message

let test_roundtrip_all_workloads () =
  (* Every workload routine, unoptimized and at every level: print, parse,
     and the reparse must print identically (structural equality via the
     canonical printer). *)
  List.iter
    (fun w ->
      let prog = Epre_workloads.Workloads.compile w in
      text_roundtrip_program prog;
      List.iter
        (fun level ->
          let p, _ = Epre.Pipeline.optimized_copy ~level prog in
          text_roundtrip_program p)
        Epre.Pipeline.all_levels)
    Epre_workloads.Workloads.all

let suite =
  [
    Alcotest.test_case "round trip: simple program" `Quick test_roundtrip_simple;
    Alcotest.test_case "round trip: every workload, every level" `Quick
      test_roundtrip_all_workloads;
    Alcotest.test_case "round trip: semantics" `Quick test_roundtrip_preserves_semantics;
    Alcotest.test_case "round trip: optimized CFG with holes" `Quick
      test_roundtrip_after_optimization;
    Alcotest.test_case "round trip: SSA form" `Quick test_roundtrip_ssa_form;
    Alcotest.test_case "parse: concise test source" `Quick test_parse_concise_source;
    Alcotest.test_case "parse: float exactness" `Quick test_parse_float_exactness;
    Alcotest.test_case "parse: errors" `Quick test_parse_errors;
    Alcotest.test_case "parse: duplicate routine" `Quick test_parse_duplicate_routine;
  ]

(* Property: the text format round-trips fuzz-generated programs lowered
   to ILOC exactly (printing is injective on behaviour and stable). *)
let roundtrip_random_programs =
  Helpers.qcheck_case ~count:150 "Ir_text" "random programs round trip"
    Test_random_programs.gen_seed
    (fun seed ->
      let prog = Test_random_programs.compile seed in
      let text = Ir_text.print_program prog in
      let prog' = Ir_text.parse_program text in
      Ir_text.print_program prog' = text)

let suite = suite @ [ roundtrip_random_programs ]

(* ------------------------------------------------------------------ *)
(* The scanner against the tokenizer parser it replaced                *)

(* What a parser makes of a text: the program as its own printer prints
   it, or the error it raised. *)
type outcome = Accepted of string | Rejected of int * string | Ill_formed of string

let show = function
  | Accepted text -> Printf.sprintf "accepted %S" text
  | Rejected (line, message) -> Printf.sprintf "Parse_error (%d, %S)" line message
  | Ill_formed m -> Printf.sprintf "Ill_formed %S" m

let scanner text =
  match Ir_text.parse_program text with
  | p -> Accepted (Ir_text.print_program p)
  | exception Ir_text.Parse_error { line; message } -> Rejected (line, message)
  | exception Routine.Ill_formed m -> Ill_formed m

let reference text =
  match Ir_text_reference.parse_program text with
  | p -> Accepted (Ir_text_reference.print_program p)
  | exception Ir_text_reference.Parse_error { line; message } -> Rejected (line, message)
  | exception Routine.Ill_formed m -> Ill_formed m

let agrees text =
  let ours = scanner text and theirs = reference text in
  ours = theirs
  || QCheck2.Test.fail_reportf "input %S@.scanner:   %s@.reference: %s" text (show ours)
       (show theirs)

(* Printed workload ILOC to mutate: every workload unoptimized, in SSA
   form (phis) and at distribution (holes, hexadecimal floats). *)
let workload_texts =
  lazy
    (Array.of_list
       (List.concat_map
          (fun w ->
            let prog = Epre_workloads.Workloads.compile w in
            let ssa = Program.copy prog in
            List.iter (fun r -> ignore (Epre_ssa.Ssa.build r)) (Program.routines ssa);
            let optimized, _ =
              Epre.Pipeline.optimized_copy ~level:Epre.Pipeline.Distribution prog
            in
            List.map Ir_text_reference.print_program [ prog; ssa; optimized ])
          Epre_workloads.Workloads.all))

(* One byte replaced, biased toward the bytes the grammar gives meaning. *)
let mutated_workload =
  QCheck2.Gen.(
    let* text = delay (fun () -> oneofa (Lazy.force workload_texts)) in
    let* pos = int_bound (String.length text - 1) in
    let* c =
      oneof
        [ printable;
          oneofl
            [ ' '; '\t'; '\n'; '\r'; '#'; ','; '('; ')'; '{'; '}'; ':'; '='; '-'; '+'; '_';
              '.'; 'r'; 'B'; 'x'; 'p'; '0'; '1'; '9' ] ]
    in
    let b = Bytes.of_string text in
    Bytes.set b pos c;
    return (Bytes.to_string b))

let generated_program =
  QCheck2.Gen.map
    (fun seed -> Ir_text_reference.print_program (Test_random_programs.compile seed))
    Test_random_programs.gen_seed

let scanner_matches_reference =
  [ Helpers.qcheck_case ~count:1000 "Ir_text" "scanner = reference parser: token soup"
      Test_fuzz_parsers.ir_text_soup agrees;
    Helpers.qcheck_case ~count:1000 "Ir_text"
      "scanner = reference parser: one-byte mutations of workload ILOC" mutated_workload agrees;
    Helpers.qcheck_case ~count:100 "Ir_text"
      "scanner = reference parser: generated programs" generated_program agrees ]

(* The language's quirks, each pinned and checked against the reference. *)
let test_scanner_quirks () =
  let routine ?(params = "") ?(regs = 4) body =
    Printf.sprintf "routine f(%s) entry B0 regs %d {\nB0:\n%s\n}\n" params regs body
  in
  let pin what text want =
    let got = scanner text in
    Alcotest.(check string) (what ^ ": scanner = reference") (show (reference text)) (show got);
    Alcotest.(check string) what (show want) (show got)
  in
  let accepted ?regs body = Accepted (routine ?regs body ^ "\n") in
  (* Numbers that are not plain decimals go through [int_of_string_opt]. *)
  pin "hex register" (routine ~regs:32 "  r0x1f = const 1\n  return r31")
    (accepted ~regs:32 "  r31 = const 1\n  return r31");
  pin "underscore register" (routine ~regs:11 "  r1_0 = const 2\n  return r10")
    (accepted ~regs:11 "  r10 = const 2\n  return r10");
  pin "signed register" (routine ~regs:6 "  r+5 = const 3\n  return r5")
    (accepted ~regs:6 "  r5 = const 3\n  return r5");
  pin "overflowing register" (routine "  r99999999999999999999 = const 1\n  return")
    (Rejected (3, {|bad register "r99999999999999999999"|}));
  pin "negative register" (routine "  r-1 = const 1\n  return")
    (Rejected (3, {|bad register "r-1"|}));
  (* A label gets a CFG slot for every number below it and [regs] sizes
     the passes' arrays, so both are bounded: a few bytes of text must
     not cost a gigabyte. *)
  let far label =
    Printf.sprintf "routine f() entry B0 regs 1 {\nB0:\n  jump %s\n%s:\n  return\n}\n" label label
  in
  pin "far label" (far "B3000000") (Rejected (3, {|label "B3000000" above 65535|}));
  pin "largest label" (far "B65535") (Accepted (far "B65535" ^ "\n"));
  pin "huge register count" (routine ~regs:30000000 "  return")
    (Rejected (1, "register count 30000000 above 1048576"));
  pin "negative register count" (routine ~regs:(-3) "  return")
    (Rejected (1, {|bad register count "-3"|}));
  pin "largest register count" (routine ~regs:Ir_text.max_regs "  return")
    (accepted ~regs:Ir_text.max_regs "  return");
  pin "register past the bound" (routine "  r1048576 = const 1\n  return")
    (Rejected (3, {|register "r1048576" above 1048575|}));
  pin "value literals"
    (routine ~regs:6
       "  r0 = const -7\n  r1 = const 0x10\n  r2 = const 1_000\n  r3 = const 1e3\n  r4 = const -0x1p-3\n  r5 = const -0\n  return r0")
    (accepted ~regs:6
       "  r0 = const -7\n  r1 = const 16\n  r2 = const 1000\n  r3 = const 0x1.f4p+9\n  r4 = const -0x1p-3\n  r5 = const 0\n  return r0");
  (* Register lists and phi arguments skip commas: any number, or none. *)
  let commas =
    "routine g(r0 r1) entry B0 regs 2 {\nB0:\n  return r0\n}\n\n"
    ^ "routine f(,r0,,) entry B0 regs 4 {\nB0:\n  r1 = call g(r0 r0,)\n  cbr r1, B1, B2\n"
    ^ "B1:\n  jump B2\nB2:\n  r3 = phi(B0: r1 B1: r0,)\n  return r3\n}\n"
  in
  pin "optional commas" commas
    (Accepted
       ("routine g(r0, r1) entry B0 regs 2 {\nB0:\n  return r0\n}\n\n"
      ^ "routine f(r0) entry B0 regs 4 {\nB0:\n  r1 = call g(r0, r0)\n  cbr r1, B1, B2\n"
      ^ "B1:\n  jump B2\nB2:\n  r3 = phi(B0: r1, B1: r0)\n  return r3\n}\n\n"));
  (* Tokens after the ")" of a call are ignored. *)
  pin "trailing call tokens" (routine "  call f() junk r9 ( ,\n  r0 = call f(r1) ) 7\n  return")
    (accepted "  call f()\n  r0 = call f(r1)\n  return");
  (* '\r' is a token byte like any other. *)
  pin "carriage return in a keyword"
    (String.concat "\r\n" [ "routine f() entry B0 regs 0 {"; "B0:"; "  return"; "}" ])
    (Rejected (1, "malformed routine header tail: entry B0 regs 0 { \r"));
  pin "carriage return in a register" (routine "  r0 = const 1\n  return r0\r")
    (Rejected (4, "bad register \"r0\\r\""));
  (* A comment ends a token; a bare "#" line is blank. *)
  pin "comments" (routine "#\n  r0 = const 5# five\n  return r0#")
    (accepted "  r0 = const 5\n  return r0");
  (* When two operands are bad, both parsers name the same one. *)
  List.iter
    (fun (what, body) -> pin what (routine body) (reference (routine body)))
    [ ("two bad store operands", "  store rx, ry\n  return");
      ("two bad binop operands", "  r0 = add rx, ry\n  return");
      ("two bad cbr operands", "  cbr rx, Bx, By");
      ("two bad phi operands", "  r0 = phi(Bx: ry)\n  return");
      ("bad alloca size and value", "  r0 = alloca x, y\n  return") ];
  (* Errors at the end of the text name the line after the last. *)
  pin "unterminated routine" "routine f() entry B0 regs 0 {\nB0:\n  return\n"
    (Rejected (5, "unterminated routine f"));
  pin "unterminated block" "routine f() entry B0 regs 0 {\nB0:" (Rejected (3, "unterminated block B0"));
  pin "bad register count" "routine f() entry B0 regs 99999999999999999999 {\n}"
    (Rejected (1, {|bad register count "99999999999999999999"|}))

(* ROADMAP item 1's normalization property for the text format: an
   optimized program prints to a fixed point of print∘parse, and its
   reparse behaves exactly as it does. *)
let test_optimized_text_is_normal () =
  let exact a b =
    match (a, b) with
    | Ok (r, e), Ok (r', e') -> Option.equal Value.equal r r' && List.equal Value.equal e e'
    | Error a, Error b -> String.equal a b
    | _ -> false
  in
  List.iter
    (fun seed ->
      let prog = Test_random_programs.compile seed in
      List.iter
        (fun level ->
          let p, _ = Epre.Pipeline.optimized_copy ~level prog in
          let text = Ir_text.print_program p in
          let p' = Ir_text.parse_program text in
          let what = Printf.sprintf "seed %d at %s" seed (Epre.Pipeline.level_to_string level) in
          Alcotest.(check string) (what ^ ": print (parse (print p))") text
            (Ir_text.print_program p');
          Alcotest.(check bool) (what ^ ": the reparse behaves identically") true
            (exact (Test_random_programs.observe p) (Test_random_programs.observe p')))
        [ Epre.Pipeline.Reassociation; Epre.Pipeline.Distribution ])
    [ 3; 17; 101; 4242; 90_001; 123_457; 777_777; 31_415_926; 271_828_182; 999_999_937 ]

let suite =
  suite
  @ scanner_matches_reference
  @ [ Alcotest.test_case "parse: the scanner's quirks, pinned" `Quick test_scanner_quirks;
      Alcotest.test_case "round trip: optimized generated programs are normal" `Quick
        test_optimized_text_is_normal ]
