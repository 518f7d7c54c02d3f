(** Global peephole optimization (one of the paper's baseline passes).

    Block-local rewriting driven by a running map from registers to their
    most recent in-block definition:
    - constant folding of unops/binops whose operands are known constants;
    - every rewrite row of the identity table ([Algebra.rows]), a
      commutative operator's operands tried either way: identity and
      absorbing elements ([x+0], [x*1], [x*0]), self-cancellation
      ([x-x], [x^x]), double negation, and the reconstruction of
      subtraction from Frailey's [x + (-y)] form, undoing the
      reassociation pass's normalization where profitable (Section 3.1:
      "we rely on a later pass, a form of global peephole optimization, to
      reconstruct the original operations when profitable");
    - conditional branches on known conditions become jumps;
    - optionally, multiplication by a power of two becomes a shift. The
      flag exists because Section 5.2 warns that shifts are not associative:
      performing this rewrite *before* global reassociation destroys
      reassociation opportunities, so the pipeline enables it only in the
      final peephole run. *)

open Epre_ir

type config = { mul_to_shift : bool }

let default_config = { mul_to_shift = false }

let log2_exact n =
  if n <= 0 then None
  else begin
    let rec go k v = if v = 1 then Some k else if v land 1 = 1 then None else go (k + 1) (v asr 1) in
    go 0 n
  end

(* Most recent in-block definition per register, with a version counter per
   register so a recorded definition can be checked for staleness: a
   [neg b] is only usable for subtraction reconstruction while [b] has not
   been redefined since. Constants carry their value, so they can never go
   stale. *)
type local = {
  defs : (Instr.reg, Instr.t * int list) Hashtbl.t;
      (** definition, with the versions its operands had at the time *)
  version : (Instr.reg, int) Hashtbl.t;
}

let version_of local r = Option.value ~default:0 (Hashtbl.find_opt local.version r)

let record local i =
  match Instr.def i with
  | None -> ()
  | Some d ->
    Hashtbl.replace local.defs d (i, List.map (version_of local) (Instr.uses i));
    Hashtbl.replace local.version d (version_of local d + 1)

(* The recorded definition of [r], only if none of its operands has been
   redefined since. *)
let fresh_def local r =
  match Hashtbl.find_opt local.defs r with
  | Some (i, versions)
    when List.for_all2 (fun u v -> version_of local u = v) (Instr.uses i) versions ->
    Some i
  | Some _ | None -> None

let lookup_const local r =
  match Hashtbl.find_opt local.defs r with
  | Some (Instr.Const { value; _ }, _) -> Some value
  | _ -> None

(* What the identity table may know of a register here: its constant,
   and its in-block definition while that is fresh. *)
let view local =
  { Algebra.const = lookup_const local;
    def =
      (fun r ->
        match fresh_def local r with
        | Some (Instr.Unop { op; src; _ }) -> Some (Algebra.Un (op, src))
        | Some (Instr.Binop { op; a; b; _ }) -> Some (Algebra.Bin (op, a, b))
        | Some _ | None -> None);
    equal = Int.equal }

let rewrite_rows = Algebra.index (List.filter (fun (row : Algebra.row) -> row.rewrite) Algebra.rows)

(* The first rewrite row that fits [e], as one instruction into [dst]. *)
let rewrite local ~dst e =
  match Algebra.apply (view local) rewrite_rows e with
  | Some (Algebra.Operand src) -> Some (Instr.Copy { dst; src })
  | Some (Algebra.Const value) -> Some (Instr.Const { dst; value })
  | Some (Algebra.Eval (Algebra.Un (op, Algebra.Operand src))) -> Some (Instr.Unop { op; dst; src })
  | Some (Algebra.Eval (Algebra.Bin (op, Algebra.Operand a, Algebra.Operand b))) ->
    Some (Instr.Binop { op; dst; a; b })
  | Some (Algebra.Eval _) | None -> None

let simplify_binop local ~dst op a b =
  match lookup_const local a, lookup_const local b with
  | Some va, Some vb -> begin
    match Op.eval_binop op va vb with
    | v -> Some (Instr.Const { dst; value = v })
    | exception (Op.Division_by_zero | Value.Type_error _) -> None
  end
  | _ -> rewrite local ~dst (Algebra.Bin (op, a, b))

(* [x * 2^k -> x shl k]: needs a register for the shift amount, so it can
   emit a preceding Const and therefore returns a list. Exposed separately
   because running it before reassociation loses grouping opportunities
   (Section 5.2) — the pipeline only enables it in the final peephole. *)
let mul_to_shift_rewrite (r : Routine.t) ~dst op a b const_a const_b =
  let candidate =
    match op, const_a, const_b with
    | Op.Mul, _, Some (Value.I n) -> Option.map (fun k -> (a, k)) (log2_exact n)
    | Op.Mul, Some (Value.I n), _ -> Option.map (fun k -> (b, k)) (log2_exact n)
    | _ -> None
  in
  match candidate with
  | Some (x, k) when k > 0 ->
    let kreg = Routine.fresh_reg r in
    Some
      [ Instr.Const { dst = kreg; value = Value.I k };
        Instr.Binop { op = Op.Shl; dst; a = x; b = kreg } ]
  | _ -> None

let simplify_unop local ~dst op src =
  match lookup_const local src with
  | Some v -> begin
    match Op.eval_unop op v with
    | v -> Some (Instr.Const { dst; value = v })
    | exception Value.Type_error _ -> None
  end
  | None -> rewrite local ~dst (Algebra.Un (op, src))

let run ?(config = default_config) (r : Routine.t) =
  let rewrites = ref 0 in
  Cfg.iter_blocks
    (fun b ->
      let local = { defs = Hashtbl.create 32; version = Hashtbl.create 32 } in
      let step i =
        let replacement =
          match i with
          | Instr.Binop { op; dst; a; b } -> begin
            match simplify_binop local ~dst op a b with
            | Some better -> Some [ better ]
            | None ->
              if config.mul_to_shift then
                mul_to_shift_rewrite r ~dst op a b (lookup_const local a)
                  (lookup_const local b)
              else None
          end
          | Instr.Unop { op; dst; src } ->
            Option.map (fun better -> [ better ]) (simplify_unop local ~dst op src)
          | _ -> None
        in
        let out = match replacement with
          | Some instrs ->
            incr rewrites;
            instrs
          | None -> [ i ]
        in
        List.iter (record local) out;
        out
      in
      b.Block.instrs <- List.concat_map step b.Block.instrs;
      (* Constant conditions become jumps. *)
      match b.Block.term with
      | Instr.Cbr { cond; ifso; ifnot } -> begin
        match lookup_const local cond with
        | Some (Value.I c) ->
          b.Block.term <- Instr.Jump (if c <> 0 then ifso else ifnot);
          incr rewrites
        | Some (Value.F _) | None -> ()
      end
      | Instr.Jump _ | Instr.Ret _ -> ())
    r.Routine.cfg;
  !rewrites
