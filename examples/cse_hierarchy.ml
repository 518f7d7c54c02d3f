(* The Section 5.3 hierarchy of redundancy eliminators, demonstrated on the
   two motivating shapes of Section 2:

   - an if-then-else whose join recomputes x + y: invisible to
     dominator-based CSE (neither branch dominates the join's computation
     site... the earlier evaluations do not dominate it), caught by
     available-expression CSE and PRE alike;
   - a one-armed if followed by a recomputation: x + y is only *partially*
     redundant, so among the three only PRE removes it.

   Run with: dune exec examples/cse_hierarchy.exe *)

open Epre_ir

let source =
  {|
// x + y fully redundant at the join (both branches compute it)
fn join_case(p: int, x: int, y: int): int {
  var a: int;
  if (p > 0) {
    a = x + y;
  } else {
    a = (x + y) * 2;
  }
  return a + (x + y);
}

// x + y only partially redundant (one branch computes it)
fn partial_case(p: int, x: int, y: int): int {
  var a: int;
  a = 0;
  if (p > 0) {
    a = x + y;
  }
  return a + (x + y);
}

fn main(): int {
  var s: int;
  var i: int;
  for i = 0 to 40 {
    s = s + join_case(i - 20, i, i + 1) + partial_case(20 - i, i, i * 2);
  }
  emit(s);
  return s;
}
|}

(* Each method as a registry spelling (the names `eprec passes` lists). *)
let variants =
  [
    ("dominator CSE (5.3 method 1)", "cse-dom");
    ("available-expression CSE (method 2)", "naming,cse-avail");
    ("partial redundancy elimination (method 3)", "naming,pre");
  ]

let () =
  let prog = Epre_frontend.Frontend.compile_string source in
  List.iter
    (fun (label, spelling) ->
      let p = Program.copy prog in
      Epre.Pipeline.run_passes
        (Epre.Passes.named (spelling ^ ",constprop,peephole,dce,coalesce,clean"))
        p;
      let result = Epre_interp.Interp.run p ~entry:"main" ~args:[] in
      Fmt.pr "%-42s: %6d dynamic operations (result %a)@." label
        (Epre_interp.Counts.total result.Epre_interp.Interp.counts)
        Fmt.(option Value.pp)
        result.Epre_interp.Interp.return_value)
    variants;
  Fmt.pr
    "@.Each method removes everything the one above it removes, and more —@.\
     the hierarchy of Section 5.3.@."
