(** SSA well-formedness checker, used pervasively by the test suite.

    Checks, beyond [Routine.validate]:
    - every register has at most one definition site;
    - every non-phi use is dominated by its definition;
    - every phi argument's definition dominates the end of the matching
      predecessor block. *)

open Epre_ir
open Epre_analysis

exception Not_ssa of string

let fail fmt = Printf.ksprintf (fun s -> raise (Not_ssa s)) fmt

let check (r : Routine.t) =
  Routine.validate r;
  let cfg = r.Routine.cfg in
  let du = Defuse.compute r in
  if not (Defuse.is_ssa du) then begin
    let offender = ref (-1) in
    for v = 0 to r.Routine.next_reg - 1 do
      if Defuse.has_multiple_defs du v && !offender < 0 then offender := v
    done;
    fail "%s: register r%d has multiple definitions" r.Routine.name !offender
  end;
  let g = Dataflow.graph cfg in
  let dom = Dom.compute g in
  let order = g.Dataflow.order in
  let entry = Cfg.entry cfg in
  (* Position of a definition for intra-block ordering: params/phis are at
     index -1 (top of block). *)
  let def_pos v =
    match Defuse.def_site du v with
    | None -> None
    | Some Defuse.Param -> Some (entry, -1)
    | Some (Defuse.At { block; index }) -> begin
      match Defuse.def_instr du v with
      | Some (Instr.Phi _) -> Some (block, -1)
      | _ -> Some (block, index)
    end
  in
  let check_use ~use_block ~use_index v =
    match def_pos v with
    | None -> fail "%s: r%d used but never defined" r.Routine.name v
    | Some (db, di) ->
      let ok =
        if db = use_block then di < use_index
        else Dom.dominates dom db use_block
      in
      if not ok then
        fail "%s: use of r%d in B%d not dominated by its definition in B%d"
          r.Routine.name v use_block db
  in
  Cfg.iter_blocks
    (fun b ->
      let id = b.Block.id in
      if Order.is_reachable order id then begin
        List.iteri
          (fun index i ->
            match i with
            | Instr.Phi { args; _ } ->
              List.iter
                (fun (p, v) ->
                  match def_pos v with
                  | None -> fail "%s: phi argument r%d never defined" r.Routine.name v
                  | Some (db, _) ->
                    if not (Dom.dominates dom db p) then
                      fail "%s: phi arg r%d (from B%d) not dominated by def in B%d"
                        r.Routine.name v p db)
                args
            | _ -> List.iter (fun v -> check_use ~use_block:id ~use_index:index v) (Instr.uses i))
          b.Block.instrs;
        List.iter
          (fun v -> check_use ~use_block:id ~use_index:max_int v)
          (Instr.term_uses b.Block.term)
      end)
    cfg
