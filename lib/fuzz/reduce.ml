(** Greedy ILOC reduction. See the interface for the move set. *)

open Epre_ir
module Tjson = Epre_telemetry.Tjson

type stats = {
  original_instrs : int;
  reduced_instrs : int;
  rounds : int;
  tried : int;
  accepted : int;
}

let stats_to_tjson s =
  Tjson.Obj
    [ ("original_instrs", Tjson.Int s.original_instrs);
      ("reduced_instrs", Tjson.Int s.reduced_instrs);
      ("rounds", Tjson.Int s.rounds);
      ("tried", Tjson.Int s.tried);
      ("accepted", Tjson.Int s.accepted) ]

let max_rounds = 10

let instr_count p =
  List.fold_left (fun n r -> n + Routine.instr_count r) 0 (Program.routines p)

type site =
  | Instr of string * int * int  (** routine, block id, position *)
  | Term of string * int  (** routine, block id: the block's terminator *)
  | Routine of string

let sites p =
  List.concat_map
    (fun (r : Routine.t) ->
      List.concat_map
        (fun (b : Block.t) ->
          List.mapi (fun k _ -> Instr (r.Routine.name, b.Block.id, k)) b.Block.instrs
          @ [ Term (r.Routine.name, b.Block.id) ])
        (Cfg.blocks r.Routine.cfg)
      @ [ Routine r.Routine.name ])
    (Program.routines p)

(* A copy of [p] with [f] applied to its routine [name]. *)
let edit p name f =
  let p = Program.copy p in
  f (Program.find_exn p name);
  p

let set_instrs p name id instrs =
  edit p name (fun r -> (Cfg.block r.Routine.cfg id).Block.instrs <- instrs)

let jump_to p name id target =
  edit p name (fun r ->
      let cfg = r.Routine.cfg in
      (Cfg.block cfg id).Block.term <- Instr.Jump target;
      let live = Cfg.reachable cfg in
      List.iter
        (fun (b : Block.t) ->
          if not (Epre_util.Bitset.mem live b.Block.id) then Cfg.remove_block cfg b.Block.id)
        (Cfg.blocks cfg))

(* The candidates at [site], in the order they are tried, each built on
   demand; none when the site's block is gone. A sweep visits a block's
   positions last to first and edits a block only at its own positions,
   so a position still exists when it is visited. *)
let candidates p site =
  let block name id =
    Option.bind (Program.find p name) (fun r -> Cfg.find_block r.Routine.cfg id)
  in
  match site with
  | Instr (name, id, k) -> (
    match block name id with
    | Some { Block.instrs; _ } ->
      let before = List.filteri (fun j _ -> j < k) instrs
      and after = List.filteri (fun j _ -> j > k) instrs in
      let zeros =
        match List.nth instrs k with
        | Instr.Const _ -> []
        | i ->
          Option.fold ~none:[]
            ~some:(fun dst ->
              List.map (fun value -> before @ (Instr.Const { dst; value } :: after)) [ Value.I 0; Value.F 0.0 ])
            (Instr.def i)
      in
      List.map
        (fun l () -> set_instrs p name id l)
        (((before @ after) :: (if after = [] then [] else [ before ])) @ zeros)
    | None -> [])
  | Term (name, id) -> (
    let to_ targets = List.map (fun t () -> jump_to p name id t) targets in
    match block name id with
    | Some { Block.term = Instr.Cbr { ifso; ifnot; _ }; _ } ->
      to_ (if ifso = ifnot then [ ifso ] else [ ifso; ifnot ])
    | Some { Block.term = Instr.Jump b; _ } -> (
      match block name b with
      | Some { Block.instrs = []; term = Instr.Jump c; _ } when c <> b -> to_ [ c ]
      | _ -> [])
    | _ -> [])
  | Routine name ->
    if name = "main" then []
    else
      [ (fun () ->
          Program.create
            (List.filter (fun (r : Routine.t) -> r.Routine.name <> name) (Program.routines p))) ]

let run ~still_fails prog =
  let tried = ref 0 and accepted = ref 0 in
  let offer cand =
    Epre_verify.Verify.errors (Epre_verify.Verify.check_program cand) = []
    && begin
      incr tried;
      still_fails cand
    end
  in
  let rec first = function
    | [] -> None
    | make :: rest ->
      let cand = make () in
      if offer cand then Some cand else first rest
  in
  let sweep prog =
    List.fold_left
      (fun prog site ->
        match first (candidates prog site) with
        | Some cand ->
          incr accepted;
          cand
        | None -> prog)
      prog
      (List.rev (sites prog))
  in
  let rec rounds n prog =
    let before = !accepted in
    let prog = sweep prog in
    if !accepted = before || n + 1 >= max_rounds then (prog, n + 1) else rounds (n + 1) prog
  in
  let reduced, rounds = rounds 0 prog in
  ( reduced,
    { original_instrs = instr_count prog;
      reduced_instrs = instr_count reduced;
      rounds;
      tried = !tried;
      accepted = !accepted } )
