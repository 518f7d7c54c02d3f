(** Seeded fault injection. See the interface for the taxonomy. *)

open Epre_ir

type kind = Drop_instr | Swap_operands | Break_phi | Detach_edge

let all_kinds = [ Drop_instr; Swap_operands; Break_phi; Detach_edge ]

let name = function
  | Drop_instr -> "chaos:drop-instr"
  | Swap_operands -> "chaos:swap-operands"
  | Break_phi -> "chaos:break-phi"
  | Detach_edge -> "chaos:detach-edge"

let description = function
  | Drop_instr -> "chaos: delete a live instruction (caught by exec validation)"
  | Swap_operands -> "chaos: swap non-commutative operands (caught by exec validation)"
  | Break_phi -> "chaos: break a phi's predecessor arguments (caught by IR validation)"
  | Detach_edge -> "chaos: retarget a terminator at a missing block (caught by IR validation)"

let of_name n = List.find_opt (fun k -> name k = n) all_kinds

let default_seed = ref 0x5eed

(* A self-contained LCG; [Random] would leak global state across runs and
   break replayability. *)
let rng ~seed (r : Routine.t) = ref (Hashtbl.hash (seed, r.Routine.name) lor 1)

let next st =
  st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
  !st

let pick st n = if n <= 0 then 0 else next st mod n

let nth_opt xs i = List.nth_opt xs i

(* Every register read anywhere in the routine: dropping a definition one
   of these depends on is what makes [Drop_instr] observable. *)
let used_regs (r : Routine.t) =
  let used = Hashtbl.create 64 in
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun i -> List.iter (fun u -> Hashtbl.replace used u ()) (Instr.uses i))
        b.Block.instrs;
      List.iter (fun u -> Hashtbl.replace used u ()) (Instr.term_uses b.Block.term))
    r.Routine.cfg;
  used

(* All (block, index) positions whose instruction satisfies [keep]. *)
let instr_sites (r : Routine.t) keep =
  Cfg.fold_blocks
    (fun acc b ->
      acc
      @ (List.mapi (fun idx i -> ((b, idx), i)) b.Block.instrs
        |> List.filter (fun (_, i) -> keep i)
        |> List.map fst))
    [] r.Routine.cfg

let drop_instr st r =
  let used = used_regs r in
  let live i =
    Instr.has_side_effect i
    || match Instr.def i with Some d -> Hashtbl.mem used d | None -> false
  in
  let sites = instr_sites r live in
  match nth_opt sites (pick st (List.length sites)) with
  | None -> ()
  | Some (b, idx) ->
    b.Block.instrs <- List.filteri (fun i _ -> i <> idx) b.Block.instrs

let swap_operands st r =
  let swappable = function
    | Instr.Binop { op; a; b; _ } -> (not (Op.commutative op)) && a <> b
    | _ -> false
  in
  let sites = instr_sites r swappable in
  match nth_opt sites (pick st (List.length sites)) with
  | None -> ()
  | Some (blk, idx) ->
    blk.Block.instrs <-
      List.mapi
        (fun i instr ->
          match instr with
          | Instr.Binop { op; dst; a; b } when i = idx ->
            Instr.Binop { op; dst; a = b; b = a }
          | _ -> instr)
        blk.Block.instrs

let break_phi st (r : Routine.t) =
  let has_args = function Instr.Phi { args; _ } -> args <> [] | _ -> false in
  let sites = instr_sites r has_args in
  match nth_opt sites (pick st (List.length sites)) with
  | Some (blk, idx) ->
    (* Drop one argument: the phi no longer matches the CFG predecessors. *)
    blk.Block.instrs <-
      List.mapi
        (fun i instr ->
          match instr with
          | Instr.Phi { dst; args } when i = idx -> Instr.Phi { dst; args = List.tl args }
          | _ -> instr)
        blk.Block.instrs
  | None ->
    (* No phis (non-SSA code): plant one whose arguments cannot match. *)
    let blocks = Cfg.blocks r.Routine.cfg in
    (match nth_opt blocks (pick st (List.length blocks)) with
    | None -> ()
    | Some b ->
      let preds = (Cfg.preds r.Routine.cfg).(b.Block.id) in
      let args = if preds = [] then [ (b.Block.id, 0) ] else [] in
      Block.prepend b (Instr.Phi { dst = Routine.fresh_reg r; args }))

let detach_edge st (r : Routine.t) =
  let branching =
    List.filter (fun b -> Block.succs b <> []) (Cfg.blocks r.Routine.cfg)
  in
  match nth_opt branching (pick st (List.length branching)) with
  | None -> ()
  | Some b ->
    let missing = Cfg.num_blocks r.Routine.cfg + 1 + pick st 7 in
    let retargeted = ref false in
    b.Block.term <-
      Instr.map_term_succs
        (fun s ->
          if !retargeted then s
          else begin
            retargeted := true;
            ignore s;
            missing
          end)
        b.Block.term

let run ?seed kind r =
  let seed = match seed with Some s -> s | None -> !default_seed in
  let st = rng ~seed r in
  match kind with
  | Drop_instr -> drop_instr st r
  | Swap_operands -> swap_operands st r
  | Break_phi -> break_phi st r
  | Detach_edge -> detach_edge st r

let parse_spec spec =
  let name, pos =
    match String.index_opt spec '@' with
    | None -> (spec, Ok 0)
    | Some i ->
      ( String.sub spec 0 i,
        match
          int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1))
        with
        | Some p when p >= 0 -> Ok p
        | _ -> Error (Printf.sprintf "bad chaos position in %S" spec) )
  in
  match (pos, of_name name) with
  | (Error _ as e), _ -> e
  | Ok pos, Some kind ->
    Ok (pos, { Harness.pass_name = name; run = run kind; checks = Harness.no_checks })
  | Ok _, None -> Error (Printf.sprintf "unknown chaos pass %S" name)

(* ------------------------------------------------------------------ *)
(* Service-layer faults *)

type service_fault =
  | Slow_job
  | Cache_corrupt
  | Cache_lock_hold
  | Kill_self
  | Pass_poison

exception Pass_poisoned of string

let () =
  Printexc.register_printer (function
    | Pass_poisoned p -> Some ("poisoned pass: " ^ p)
    | _ -> None)

let all_service_faults =
  [ Slow_job; Cache_corrupt; Cache_lock_hold; Kill_self; Pass_poison ]

let service_name = function
  | Slow_job -> "chaos:slow-job"
  | Cache_corrupt -> "chaos:cache-corrupt"
  | Cache_lock_hold -> "chaos:cache-lock-hold"
  | Kill_self -> "chaos:kill-self"
  | Pass_poison -> "chaos:pass-poison"

let service_description = function
  | Slow_job ->
    "chaos: stall the job worker (absorbed by the per-job deadline)"
  | Cache_corrupt ->
    "chaos: overwrite the job's cache entries with garbage (absorbed by \
     poison recovery)"
  | Cache_lock_hold ->
    "chaos: hold the cross-process cache write lock (absorbed by lock \
     waiting)"
  | Kill_self ->
    "chaos: abort the serve process at a journal-consistent batch boundary \
     (absorbed by --resume)"
  | Pass_poison ->
    "chaos: make one optimization pass fail deterministically on every job \
     (absorbed by the degradation ladder and circuit breakers)"

let service_fault_of_name n =
  List.find_opt (fun f -> service_name f = n) all_service_faults

(* Per-fault firing probability, in per-mille. High enough that a small
   serve batch sees every class fire, low enough that unfired jobs exist
   to pin the happy path. [Kill_self] is rarer: one firing job is enough
   to take the whole process down, and the drill wants it mid-stream, not
   on the first batch. [Pass_poison] is unconditional: the point is a
   *deterministic* failure on every job. *)
let fire_rate = function
  | Slow_job -> 350
  | Cache_corrupt -> 350
  | Cache_lock_hold -> 350
  | Kill_self -> 80
  | Pass_poison -> 1000

let fires ?seed fault ~key =
  let seed = match seed with Some s -> s | None -> !default_seed in
  Hashtbl.hash (seed, service_name fault, key) mod 1000 < fire_rate fault

let poison_target ?seed ~candidates () =
  match candidates with
  | [] -> None
  | _ ->
    let seed = match seed with Some s -> s | None -> !default_seed in
    let i =
      Hashtbl.hash (seed, service_name Pass_poison) mod List.length candidates
    in
    List.nth_opt candidates i
