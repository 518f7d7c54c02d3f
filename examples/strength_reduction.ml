(* Strength reduction composing with reassociation — the interaction the
   paper predicts in Section 5.2: "Reassociation should let strength
   reduction introduce fewer distinct induction variables, particularly in
   code with complex subscripts".

   A column sweep over a 2-D array multiplies the induction variable by the
   row stride on every access. After the distribution pipeline exposes the
   products, strength reduction turns each loop multiply into an addition.

   Run with: dune exec examples/strength_reduction.exe *)

open Epre_ir

let source =
  {|
fn colsweep(n: int, a: float[25,25]): float {
  var s: float;
  var j: int;
  var i: int;
  for j = 1 to n {
    for i = 1 to n {
      s = s + a[i,j];        // address: base + ((i-1)*25 + (j-1))
    }
  }
  return s;
}

fn main(): float {
  var a: float[25,25];
  var i: int;
  var j: int;
  for i = 1 to 25 {
    for j = 1 to 25 {
      a[i,j] = float(i) * 0.5 - float(j) * 0.25;
    }
  }
  var r: float = colsweep(25, a);
  emit(r);
  return r;
}
|}

let report label prog =
  let result = Epre_interp.Interp.run prog ~entry:"main" ~args:[] in
  let c = result.Epre_interp.Interp.counts in
  Fmt.pr "%-28s: %6d operations, %5d multiplies@." label
    (Epre_interp.Counts.total c)
    c.Epre_interp.Counts.mults

let () =
  let prog = Epre_frontend.Frontend.compile_string source in
  report "unoptimized" prog;
  (* the paper's best pipeline *)
  let p, _ = Epre.Pipeline.optimized_copy ~level:Epre.Pipeline.Distribution prog in
  report "distribution pipeline" p;
  (* ... then the extension *)
  Epre.Pipeline.run_passes
    (Epre.Passes.named "strength,constprop,peephole,dce,coalesce,clean")
    p;
  report "+ strength reduction" p;
  Fmt.pr "@.The inner loop of colsweep, multiplies reduced to additions:@.%a@."
    Pp.routine
    (Program.find_exn p "colsweep")
