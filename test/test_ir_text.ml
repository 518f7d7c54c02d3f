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
