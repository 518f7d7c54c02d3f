(** Tests for [Epre_pre.Pre.run_classic], the Morel–Renvoise (block-end
    placement) ablation: it must be correct everywhere and never stronger
    than the edge-placement engine [Epre_pre.Pre.run]. *)

open Epre_ir

let cleanup r =
  ignore (Epre_opt.Constprop.run r);
  ignore (Epre_opt.Peephole.run r);
  ignore (Epre_opt.Dce.run r);
  ignore (Epre_opt.Coalesce.run r);
  ignore (Epre_opt.Clean.run r)

let optimize_with pre prog =
  let p = Program.copy prog in
  List.iter
    (fun r ->
      ignore (Epre_opt.Naming.run r);
      pre r;
      cleanup r;
      Routine.validate r)
    (Program.routines p);
  p

let test_partial_redundancy_example () =
  let source =
    {|
fn f(p: int, x: int, y: int): int {
  var a: int;
  a = 1;
  if (p > 0) {
    a = x + y;
  }
  return a * (x + y);
}
|}
  in
  let prog = Helpers.compile source in
  let p = optimize_with (fun r -> ignore (Epre_pre.Pre.run_classic r)) prog in
  Helpers.check_same_behaviour ~entry:"f"
    ~args:[ Value.I 1; Value.I 2; Value.I 3 ]
    ~what:"classic PRE" prog p;
  Helpers.check_same_behaviour ~entry:"f"
    ~args:[ Value.I 0; Value.I 2; Value.I 3 ]
    ~what:"classic PRE (else)" prog p

let test_loop_invariant_still_hoists () =
  (* With the rotated loop shape, the preheader edge is not critical, so
     even block-end placement hoists the invariant. *)
  let source =
    {|
fn f(n: int, x: int, y: int): int {
  var s: int;
  var i: int;
  for i = 1 to n {
    s = s + (x + y);
  }
  return s;
}
|}
  in
  let prog = Helpers.compile source in
  let before =
    Helpers.dynamic_ops ~entry:"f" ~args:[ Value.I 40; Value.I 2; Value.I 3 ] prog
  in
  let p = optimize_with (fun r -> ignore (Epre_pre.Pre.run_classic r)) prog in
  let after =
    Helpers.dynamic_ops ~entry:"f" ~args:[ Value.I 40; Value.I 2; Value.I 3 ] p
  in
  Alcotest.(check bool)
    (Printf.sprintf "invariant hoisted (%d -> %d)" before after)
    true
    (after < before - 30)

let test_all_workloads_preserved () =
  List.iter
    (fun w ->
      let prog = Epre_workloads.Workloads.compile w in
      let p = optimize_with (fun r -> ignore (Epre_pre.Pre.run_classic r)) prog in
      Helpers.check_same_behaviour
        ~what:(w.Epre_workloads.Workloads.name ^ "+mr-pre")
        prog p)
    Epre_workloads.Workloads.all

let test_edge_placement_dominates () =
  (* The reason the paper uses Drechsler–Stadel: block-end placement is
     blocked by critical edges. On every workload the edge-placement
     engine must do at least as well. *)
  List.iter
    (fun w ->
      let prog = Epre_workloads.Workloads.compile w in
      let lcm =
        Helpers.dynamic_ops (optimize_with (fun r -> ignore (Epre_pre.Pre.run r)) prog)
      in
      let mr =
        Helpers.dynamic_ops
          (optimize_with (fun r -> ignore (Epre_pre.Pre.run_classic r)) prog)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: edge %d <= block-end %d" w.Epre_workloads.Workloads.name
           lcm mr)
        true (lcm <= mr))
    Epre_workloads.Workloads.all

let test_classic_idempotent () =
  let prog =
    Helpers.compile
      "fn f(x: int, y: int): int { return (x + y) * (x + y); }"
  in
  let r = Program.find_exn prog "f" in
  ignore (Epre_opt.Naming.run r);
  ignore (Epre_pre.Pre.run_classic r);
  let again = Epre_pre.Pre.run_classic r in
  Alcotest.(check int) "no further insertions" 0 again.Epre_pre.Pre.inserted;
  Alcotest.(check int) "value" 100
    (Helpers.run_int ~entry:"f" ~args:[ Value.I 4; Value.I 6 ] prog)

let suite =
  [
    Alcotest.test_case "partial redundancy example" `Quick test_partial_redundancy_example;
    Alcotest.test_case "loop invariants hoist" `Quick test_loop_invariant_still_hoists;
    Alcotest.test_case "all workloads preserved" `Slow test_all_workloads_preserved;
    Alcotest.test_case "edge placement dominates" `Slow test_edge_placement_dominates;
    Alcotest.test_case "idempotent" `Quick test_classic_idempotent;
  ]
