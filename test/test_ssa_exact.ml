(** Exactness of the lean SSA passes against the straightforward ones in
    [Ssa_reference]: [Ssa.build] places the same phis and hands out the
    same names, [Ssa.destroy] emits the same copies,
    [Parallel_copy.sequentialize] the same sequence, and
    [Partition.build] the same congruence classes. The inputs are every
    kernel routine as each level hands it to its SSA passes, the routines
    of 200 [Fuzz.Gen] programs at the distribution level, random strict
    routines on random graphs (entries with predecessors included), and
    random parallel copies with cycles. *)

open Epre_ir
open QCheck2

let ssa_passes = [ "constprop"; "gvn"; "reassociation" ]

(* Copies of the routines each SSA pass of [level] receives. *)
let ssa_inputs ~level prog =
  let inputs = ref [] in
  let wrap passes =
    List.map
      (fun (p : Epre_harness.Harness.named_pass) ->
        if List.mem p.pass_name ssa_passes then
          { p with
            run =
              (fun r ->
                inputs := Routine.copy r :: !inputs;
                p.run r) }
        else p)
      passes
  in
  List.iter
    (fun r -> ignore (Epre.Pipeline.optimize_routine ~wrap ~level r))
    (Program.routines (Program.copy prog));
  List.rev !inputs

(* Leaders (smallest member of a class) from a reference [class_of]. *)
let reference_leaders class_of =
  let least = Hashtbl.create 16 in
  Array.iteri
    (fun v c -> if c >= 0 && not (Hashtbl.mem least c) then Hashtbl.replace least c v)
    class_of;
  Array.map (fun c -> if c < 0 then -1 else Hashtbl.find least c) class_of

let same_partition ~commutative (r : Routine.t) =
  let part = Epre_gvn.Partition.build ~config:{ Epre_gvn.Partition.commutative } r in
  let want = reference_leaders (Ssa_reference.partition ~commutative r) in
  let ok = ref true in
  Array.iteri
    (fun v l ->
      let c = Epre_gvn.Partition.class_of part v in
      let got = if c < 0 then -1 else Epre_gvn.Partition.leader part v in
      if got <> l then ok := false)
    want;
  !ok

(* Build, partition and destroy side by side; [None] when both builds
   reject the routine the same way. *)
let compare_round_trip ?(fold_copies = true) (r : Routine.t) =
  let mine = Routine.copy r and theirs = Routine.copy r in
  let builds f =
    match f () with () -> true | exception Epre_ssa.Ssa.Use_before_def _ -> false
  in
  let ok_mine = builds (fun () -> ignore (Epre_ssa.Ssa.build ~config:{ Epre_ssa.Ssa.fold_copies } mine)) in
  let ok_theirs = builds (fun () -> Ssa_reference.build ~fold_copies theirs) in
  if ok_mine <> ok_theirs then Some "only one build rejects the routine"
  else if not ok_mine then None
  else if not (Routine.equal mine theirs) then Some "SSA form differs"
  else if not (same_partition ~commutative:true mine && same_partition ~commutative:false mine)
  then Some "partition differs"
  else begin
    ignore (Epre_ssa.Ssa.destroy mine);
    Ssa_reference.destroy theirs;
    if Routine.equal mine theirs then None else Some "destruction differs"
  end

let check_routine ~what r =
  match compare_round_trip r with
  | None -> ()
  | Some why -> Alcotest.failf "%s/%s: %s" what r.Routine.name why

let test_kernels () =
  List.iter
    (fun w ->
      let prog = Epre_workloads.Workloads.compile w in
      List.iter
        (fun level ->
          let what = w.Epre_workloads.Workloads.name ^ "@" ^ Epre.Pipeline.level_to_string level in
          List.iter (check_routine ~what) (ssa_inputs ~level prog))
        Epre.Pipeline.all_levels)
    Epre_workloads.Workloads.all

let test_fuzz_programs () =
  for seed = 0 to 199 do
    let prog = Epre_frontend.Frontend.compile_string (Epre_fuzz.Gen.source seed) in
    let what = Printf.sprintf "seed %d" seed in
    List.iter (check_routine ~what) (Program.routines prog);
    List.iter (check_routine ~what) (ssa_inputs ~level:Epre.Pipeline.Distribution prog)
  done

(* Strict routines on random graphs: every register is a parameter, so
   each read has a definition on every path, and bodies redefine them
   with adds and copies. Entry 0 can have predecessors, blocks can be
   unreachable, and a [Cbr] can name one target twice. *)
let gen_strict =
  Gen.(
    let* n = int_range 1 8 in
    let* edges = list_size (int_range 0 14) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
    let* width = int_range 1 12 in
    let reg = int_bound (width - 1) in
    let* bodies = list_size (return n) (list_size (int_range 0 5) (quad bool reg reg reg)) in
    let* rets = list_size (return n) reg in
    let* fold = bool in
    return (n, edges, width, bodies, rets, fold))

let strict_routine (n, edges, width, bodies, rets, _) =
  let cfg = Cfg.create () in
  List.iteri
    (fun id body ->
      let instrs =
        List.map
          (fun (copy, dst, a, b) ->
            if copy then Instr.Copy { dst; src = a } else Instr.Binop { op = Op.Add; dst; a; b })
          body
      in
      ignore (Cfg.add_block ~instrs ~term:(Instr.Ret (Some (List.nth rets id))) cfg))
    bodies;
  let succs = Array.make n [] in
  List.iter (fun (a, b) -> if List.length succs.(a) < 2 then succs.(a) <- succs.(a) @ [ b ]) edges;
  Array.iteri
    (fun id -> function
      | [] -> ()
      | [ s ] -> (Cfg.block cfg id).Block.term <- Instr.Jump s
      | s1 :: s2 :: _ -> (Cfg.block cfg id).Block.term <- Instr.Cbr { cond = 0; ifso = s1; ifnot = s2 })
    succs;
  Routine.create ~name:"strict" ~params:(List.init width Fun.id) ~cfg ~next_reg:width

let random_cfgs_match =
  Helpers.qcheck_case ~count:500 "Ssa" "lean build/destroy/partition = reference on random graphs"
    gen_strict (fun ((_, _, _, _, _, fold) as inst) ->
      compare_round_trip ~fold_copies:fold (strict_routine inst) = None)

let gen_copies =
  Gen.(
    let* width = int_range 1 8 in
    list_size (int_range 0 10) (pair (int_bound (width - 1)) (int_bound (width - 1))))

let sequentialize_matches =
  Helpers.qcheck_case ~count:1000 "Parallel_copy" "array sequentializer = reference" gen_copies
    (fun copies ->
      let counter () =
        let next = ref 100 in
        fun () ->
          incr next;
          !next
      in
      Epre_ssa.Parallel_copy.sequentialize ~fresh:(counter ()) copies
      = Ssa_reference.sequentialize ~fresh:(counter ()) copies)

let suite =
  [
    Alcotest.test_case "kernels at every level" `Slow test_kernels;
    Alcotest.test_case "200 generated programs" `Slow test_fuzz_programs;
    random_cfgs_match;
    sequentialize_matches;
  ]
