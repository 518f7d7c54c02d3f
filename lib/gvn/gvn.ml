(** Global renaming by value (Section 3.2).

    Builds SSA (folding copies, so the programmer's variable names vanish),
    computes AWZ congruence classes, and renames every register to its
    class representative. "Renaming encodes the value equivalences into the
    name space; this exposes new opportunities to PRE. It also constructs
    the name space required by PRE": afterwards, lexically-identical
    expressions have identical names, and only copies target the remaining
    variable names. The names are the only thing changed — no instructions
    are added, deleted, or moved (phis whose renamed arguments all equal
    their renamed destination become vacuous and are the one deletion we
    allow ourselves, as SSA destruction would only expand them into
    self-copies).

    Finally SSA is destroyed, leaving ILOC ready for PRE. *)

open Epre_ir

type stats = {
  classes_merged : int;  (** congruence classes with more than one member *)
  renamed : int;  (** registers renamed to another representative *)
}

let run ?(config = Partition.default_config) (r : Routine.t) =
  ignore (Epre_ssa.Ssa.build r);
  let part = Partition.build ~config r in
  (* Representative: smallest register of the class (parameters have the
     smallest numbers, so a class containing a parameter keeps its name). *)
  let merged = ref 0 in
  let renamed = ref 0 in
  (* A class is merged when a register's leader is another register;
     [counted] holds the leaders of classes counted so far. *)
  let counted = Epre_util.Bitset.create r.Routine.next_reg in
  Array.iter
    (fun v ->
      let l = Partition.leader part v in
      if l <> v then begin
        incr renamed;
        if not (Epre_util.Bitset.mem counted l) then begin
          Epre_util.Bitset.add counted l;
          incr merged
        end
      end)
    (Partition.registers part);
  let rename v = Partition.leader part v in
  Cfg.iter_blocks
    (fun b ->
      b.Block.instrs <-
        List.filter_map
          (fun i ->
            let i =
              match i with
              | Instr.Const { dst; value } -> Instr.Const { dst = rename dst; value }
              | Instr.Unop { op; dst; src } -> Instr.Unop { op; dst = rename dst; src = rename src }
              | Instr.Binop { op; dst; a; b } ->
                Instr.Binop { op; dst = rename dst; a = rename a; b = rename b }
              | i -> Instr.map_uses rename (Instr.map_def rename i)
            in
            match i with
            | Instr.Phi { dst; args } when List.for_all (fun (_, a) -> a = dst) args ->
              (* Vacuous after renaming: every input is already the
                 destination's value. *)
              None
            | i -> Some i)
          b.Block.instrs;
      b.Block.term <- Instr.map_term_uses rename b.Block.term)
    r.Routine.cfg;
  let r = Epre_ssa.Ssa.destroy r in
  ignore r;
  { classes_merged = !merged; renamed = !renamed }
