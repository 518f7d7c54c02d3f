(** Conservative non-SSA value numbering. See the interface. *)

open Epre_ir
module Union_find = Epre_util.Union_find

(* Value keys are expression keys over class representatives. *)
module Keys = Expr_key.Tbl

type t = {
  uf : Union_find.t;
  stable : bool array;
  width : int;
  keys : int Keys.t;  (** final-round value key -> class rep *)
}

let pure_def = function
  | Instr.Const _ | Instr.Copy _ | Instr.Unop _ | Instr.Binop _ -> true
  | Instr.Load _ | Instr.Store _ | Instr.Alloca _ | Instr.Call _ | Instr.Phi _
    ->
    false

let compute (r : Routine.t) =
  let width = max 1 r.Routine.next_reg in
  let def_count = Array.make width 0 in
  let def_instr = Array.make width None in
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          match Instr.def i with
          | Some d when d >= 0 && d < width ->
            def_count.(d) <- def_count.(d) + 1;
            def_instr.(d) <- Some i
          | _ -> ())
        b.Block.instrs)
    r.Routine.cfg;
  let stable = Array.make width false in
  (* Parameters are stable leaves — unless something also writes them. *)
  List.iter
    (fun p -> if p >= 0 && p < width && def_count.(p) = 0 then stable.(p) <- true)
    r.Routine.params;
  let operand_ok u = u >= 0 && u < width && stable.(u) in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun d def ->
        if (not stable.(d)) && def_count.(d) = 1 then
          match def with
          | Some i when pure_def i && List.for_all operand_ok (Instr.uses i) ->
            stable.(d) <- true;
            changed := true
          | _ -> ())
      def_instr
  done;
  (* Optimistic congruence over the stable registers: hash on (operator,
     operand class) and merge equal keys until the partition is stable.
     Classes only ever merge, so this terminates. *)
  let uf = Union_find.create width in
  let keys = Keys.create 64 in
  let key_of_def d =
    match def_instr.(d) with
    | Some (Instr.Const { value; _ }) -> Some (Expr_key.KConst value)
    | Some (Instr.Unop { op; src; _ }) -> Some (Expr_key.KUnop (op, Union_find.find uf src))
    | Some (Instr.Binop { op; a; b; _ }) ->
      Some (Expr_key.binop op (Union_find.find uf a) (Union_find.find uf b))
    | _ -> None
  in
  let rounds = ref true in
  while !rounds do
    rounds := false;
    Keys.reset keys;
    for d = 0 to width - 1 do
      if stable.(d) then
        match def_instr.(d) with
        | Some (Instr.Copy { src; _ }) ->
          if not (Union_find.same uf d src) then begin
            ignore (Union_find.union uf d src);
            rounds := true
          end
        | _ -> (
          match key_of_def d with
          | None -> ()
          | Some key -> (
            match Keys.find_opt keys key with
            | Some other ->
              if not (Union_find.same uf d other) then begin
                ignore (Union_find.union uf d other);
                rounds := true
              end
            | None -> Keys.add keys key (Union_find.find uf d)))
    done
  done;
  (* One final pass so [keys] maps every value key to its settled rep. *)
  Keys.reset keys;
  for d = 0 to width - 1 do
    if stable.(d) then
      match key_of_def d with
      | Some key when not (Keys.mem keys key) ->
        Keys.add keys key (Union_find.find uf d)
      | _ -> ()
  done;
  { uf; stable; width; keys }

let stable t reg = reg >= 0 && reg < t.width && t.stable.(reg)

let class_of t reg = if stable t reg then Some (Union_find.find t.uf reg) else None

let same_class t a b = stable t a && stable t b && Union_find.same t.uf a b

let congruent_holders t i =
  let key =
    match i with
    | Instr.Unop { op; src; _ } when stable t src ->
      Some (Expr_key.KUnop (op, Union_find.find t.uf src))
    | Instr.Binop { op; a; b; _ } when stable t a && stable t b ->
      Some (Expr_key.binop op (Union_find.find t.uf a) (Union_find.find t.uf b))
    | _ -> None
  in
  match key with
  | None -> []
  | Some key -> (
    match Keys.find_opt t.keys key with
    | None -> []
    | Some rep ->
      let out = ref [] in
      for d = t.width - 1 downto 0 do
        if t.stable.(d) && Union_find.same t.uf d rep then out := d :: !out
      done;
      !out)
