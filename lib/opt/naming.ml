(** Expression-name normalization (the discipline of Section 2.2).

    Establishes the invariant PRE and the CSE passes rely on: within a
    routine there is a bijection between expression names and expressions —
    every evaluation of the expression [(op, a, b)] targets the same
    register, and that register is targeted by nothing else. Registers that
    fail the property get a fresh canonical name, with the original name
    re-established by a copy (making it a variable name).

    Code straight out of the front end or out of GVN renaming already
    satisfies the discipline, and then this pass changes nothing. It exists
    so PRE is safe on any ILOC whatsoever — Section 5.1's correctness
    discussion is precisely about inputs that violate the discipline. *)

open Epre_ir

let run (r : Routine.t) =
  if r.Routine.in_ssa then invalid_arg "Naming.run: requires non-SSA code";
  (* First pass: which registers already qualify as the canonical name of a
     single key? A register qualifies if all of its definitions are
     evaluations of one and the same key, AND reusing it as the canonical
     name cannot change the value any existing use observes. The latter is
     the crux of Section 5.1: giving a *second* evaluation site the same
     destination register redefines it, and a use in another block that
     referred to the first definition silently starts reading the second
     (the paper's sqrt example). Reuse is therefore safe only when the key
     has a single evaluation site, or when every use of the register sits
     below a definition in its own block (no upward-exposed uses), in which
     case each use keeps reading its adjacent evaluation. *)
  let def_keys : (Instr.reg, Expr_key.t option list) Hashtbl.t = Hashtbl.create 64 in
  let note reg k =
    let prev = Option.value ~default:[] (Hashtbl.find_opt def_keys reg) in
    Hashtbl.replace def_keys reg (k :: prev)
  in
  List.iter (fun p -> note p None) r.Routine.params;
  let key_sites : int Expr_key.Tbl.t = Expr_key.Tbl.create 64 in
  let upward_exposed = Hashtbl.create 64 in
  Cfg.iter_blocks
    (fun b ->
      let defined_here = Hashtbl.create 16 in
      let see_use u =
        if not (Hashtbl.mem defined_here u) then Hashtbl.replace upward_exposed u ()
      in
      List.iter
        (fun i ->
          List.iter see_use (Instr.uses i);
          Option.iter
            (fun d ->
              note d (Expr_key.of_instr i);
              Hashtbl.replace defined_here d ())
            (Instr.def i);
          match Expr_key.of_instr i with
          | Some k ->
            Expr_key.Tbl.replace key_sites k
              (1 + Option.value ~default:0 (Expr_key.Tbl.find_opt key_sites k))
          | None -> ())
        b.Block.instrs;
      List.iter see_use (Instr.term_uses b.Block.term))
    r.Routine.cfg;
  let qualifies reg key =
    (match Hashtbl.find_opt def_keys reg with
    | Some keys -> List.for_all (function Some k -> Expr_key.identical k key | None -> false) keys
    | None -> false)
    && (Option.value ~default:0 (Expr_key.Tbl.find_opt key_sites key) <= 1
       || not (Hashtbl.mem upward_exposed reg))
  in
  (* canonical name per key: reuse the target when it qualifies, otherwise a
     fresh register. *)
  let canonical : Instr.reg Expr_key.Tbl.t = Expr_key.Tbl.create 64 in
  let claimed : (Instr.reg, unit) Hashtbl.t = Hashtbl.create 64 in
  let name_for key ~current =
    match Expr_key.Tbl.find_opt canonical key with
    | Some t -> t
    | None ->
      let t =
        if qualifies current key && not (Hashtbl.mem claimed current) then current
        else Routine.fresh_reg r
      in
      Expr_key.Tbl.replace canonical key t;
      Hashtbl.replace claimed t ();
      t
  in
  let rewrites = ref 0 in
  Cfg.iter_blocks
    (fun b ->
      b.Block.instrs <-
        List.concat_map
          (fun i ->
            match Expr_key.of_instr i, Instr.def i with
            | Some key, Some dst ->
              let t = name_for key ~current:dst in
              if t = dst then [ i ]
              else begin
                incr rewrites;
                [ Expr_key.to_instr key ~dst:t; Instr.Copy { dst; src = t } ]
              end
            | _ -> [ i ])
          b.Block.instrs)
    r.Routine.cfg;
  !rewrites
