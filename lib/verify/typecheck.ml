(** Register-type inference and the [T0xx] rules. See the interface. *)

open Epre_ir

type ty = Unknown | Known of Ty.t | Conflict

let join a b =
  match (a, b) with
  | Unknown, x | x, Unknown -> x
  | Conflict, _ | _, Conflict -> Conflict
  | Known x, Known y -> if Ty.equal x y then a else Conflict

let ty_equal a b =
  match (a, b) with
  | Unknown, Unknown | Conflict, Conflict -> true
  | Known x, Known y -> Ty.equal x y
  | (Unknown | Known _ | Conflict), _ -> false

let ty_to_string = function
  | Unknown -> "unknown"
  | Conflict -> "conflicting"
  | Known t -> Ty.to_string t

(* Whether a routine ever executes [Ret (Some _)] / [Ret None]; joining
   both yields [Mixed], which [T011] reports. *)
type returns = R_unknown | R_value | R_none | R_mixed

let join_returns a b =
  match (a, b) with
  | R_unknown, x | x, R_unknown -> x
  | R_value, R_value -> R_value
  | R_none, R_none -> R_none
  | _ -> R_mixed

let returns_equal (a : returns) (b : returns) = a == b

(* [param_req] is the callee's own contract — joined only from use
   constraints inside its body — and is what call-site arguments are
   checked against (T009). [param_tys] additionally joins the argument
   types of every call site and feeds the parameter's binding in the
   body's environment; folding call sites into the contract itself would
   turn every mismatch into [Conflict] and silence the report. *)
type signature = {
  mutable param_req : ty array;
  mutable param_tys : ty array;
  mutable ret_ty : ty;
  mutable returns : returns;
}

type info = {
  sigs : (string, signature) Hashtbl.t;
  envs : (string, ty array) Hashtbl.t;
}

let in_range env r = r >= 0 && r < Array.length env

let env_get env r = if in_range env r then env.(r) else Unknown

(* Merge [t] into [env.(r)]; true when the entry actually rose. *)
let merge_reg changed env r t =
  if in_range env r then begin
    let t' = join env.(r) t in
    if not (ty_equal t' env.(r)) then begin
      env.(r) <- t';
      changed := true
    end
  end

(* Types each instruction requires of its register operands, paired with
   the rule id a mismatch falls under. Calls are handled separately via
   the callee's signature. *)
let use_constraints = function
  | Instr.Unop { op; src; _ } -> [ (src, Op.unop_operand_ty op, "T002") ]
  | Instr.Binop { op; a; b; _ } ->
    let t = Op.binop_operand_ty op in
    [ (a, t, "T001"); (b, t, "T001") ]
  | Instr.Load { addr; _ } -> [ (addr, Ty.Int, "T003") ]
  | Instr.Store { addr; _ } -> [ (addr, Ty.Int, "T003") ]
  | Instr.Const _ | Instr.Copy _ | Instr.Alloca _ | Instr.Call _
  | Instr.Phi _ ->
    []

let term_constraints = function
  | Instr.Cbr { cond; _ } -> [ (cond, Ty.Int, "T004") ]
  | Instr.Jump _ | Instr.Ret _ -> []

(* The type an instruction's definition carries, given the current
   environment and signature table. *)
let def_ty sigs env = function
  | Instr.Const { value; _ } -> Known (Value.ty value)
  | Instr.Copy { src; _ } -> env_get env src
  | Instr.Unop { op; _ } -> Known (Op.unop_result_ty op)
  | Instr.Binop { op; _ } -> Known (Op.binop_result_ty op)
  | Instr.Load _ -> Unknown (* memory words are untyped *)
  | Instr.Alloca _ -> Known Ty.Int (* an address *)
  | Instr.Call { callee; args; _ } -> begin
    match callee with
    | "emit" -> ( match args with [ a ] -> env_get env a | _ -> Unknown)
    | _ -> begin
      match Hashtbl.find_opt sigs callee with
      | Some s -> s.ret_ty
      | None -> Unknown
    end
  end
  | Instr.Phi { args; _ } ->
    List.fold_left (fun acc (_, r) -> join acc (env_get env r)) Unknown args
  | Instr.Store _ -> Unknown (* no definition *)

(* Registers a routine never defines keep their parameter binding for the
   whole body, so use constraints on them refine the signature. Computed
   once per [infer]: [free] is a byte map over the routine's registers
   (1 for such a parameter) and [positions] lists each one's parameter
   positions, so a use looks up, not scans, the parameter list.
   Parameters outside the register range (ill-formed, but inferred all
   the same) sit in [outside] as (register, position) pairs. *)
type free_params = {
  free : Bytes.t;
  positions : int list array;
  outside : (Instr.reg * int) list;
}

let free_params (r : Routine.t) =
  let n = max 0 r.Routine.next_reg in
  let free = Bytes.make n '\000' and positions = Array.make n [] in
  let outside = ref [] in
  List.iteri
    (fun i p ->
      if p >= 0 && p < n then begin
        Bytes.set free p '\001';
        positions.(p) <- i :: positions.(p)
      end
      else outside := (p, i) :: !outside)
    r.Routine.params;
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          match Instr.def i with
          | Some d when d >= 0 && d < n -> Bytes.set free d '\000'
          | Some d when !outside <> [] ->
            outside := List.filter (fun (p, _) -> p <> d) !outside
          | _ -> ())
        b.Block.instrs)
    r.Routine.cfg;
  { free; positions; outside = !outside }

let free_positions fp u =
  if u >= 0 && u < Bytes.length fp.free then
    if Bytes.get fp.free u = '\001' then fp.positions.(u) else []
  else List.filter_map (fun (p, i) -> if p = u then Some i else None) fp.outside

let one_round changed (routines : (Routine.t * free_params) list) (info : info) =
  List.iter
    (fun ((r : Routine.t), fp) ->
      let name = r.Routine.name in
      let env = Hashtbl.find info.envs name in
      let s = Hashtbl.find info.sigs name in
      (* Parameter bindings flow from the signature into the body. *)
      List.iteri
        (fun i p ->
          if i < Array.length s.param_tys then
            merge_reg changed env p s.param_tys.(i))
        r.Routine.params;
      (* Use constraints on never-redefined parameters refine the
         signature (and the binding itself). *)
      let constrain_use u t =
        match free_positions fp u with
        | [] -> ()
        | positions ->
          List.iter
            (fun i ->
              if i < Array.length s.param_tys then begin
                let t' = join s.param_tys.(i) (Known t) in
                if not (ty_equal t' s.param_tys.(i)) then begin
                  s.param_tys.(i) <- t';
                  changed := true
                end;
                let q = join s.param_req.(i) (Known t) in
                if not (ty_equal q s.param_req.(i)) then begin
                  s.param_req.(i) <- q;
                  changed := true
                end
              end)
            positions;
          merge_reg changed env u (Known t)
      in
      Cfg.iter_blocks
        (fun b ->
          List.iter
            (fun i ->
              List.iter
                (fun (u, t, _) -> constrain_use u t)
                (use_constraints i);
              (* Definitions contribute downward. *)
              (match Instr.def i with
              | Some d -> merge_reg changed env d (def_ty info.sigs env i)
              | None -> ());
              (* Call sites push argument types into callee signatures. *)
              match i with
              | Instr.Call { callee; args; _ } -> begin
                match Hashtbl.find_opt info.sigs callee with
                | None -> ()
                | Some cs ->
                  List.iteri
                    (fun k a ->
                      if k < Array.length cs.param_tys then begin
                        let t' = join cs.param_tys.(k) (env_get env a) in
                        if not (ty_equal t' cs.param_tys.(k)) then begin
                          cs.param_tys.(k) <- t';
                          changed := true
                        end
                      end)
                    args
              end
              | _ -> ())
            b.Block.instrs;
          List.iter
            (fun (u, t, _) -> constrain_use u t)
            (term_constraints b.Block.term);
          (* Return sites contribute to the routine's return type. *)
          match b.Block.term with
          | Instr.Ret (Some v) ->
            let t' = join s.ret_ty (env_get env v) in
            if not (ty_equal t' s.ret_ty) then begin
              s.ret_ty <- t';
              changed := true
            end;
            let rv = join_returns s.returns R_value in
            if not (returns_equal rv s.returns) then begin
              s.returns <- rv;
              changed := true
            end
          | Instr.Ret None ->
            let rv = join_returns s.returns R_none in
            if not (returns_equal rv s.returns) then begin
              s.returns <- rv;
              changed := true
            end
          | _ -> ())
        r.Routine.cfg)
    routines

let infer (p : Program.t) =
  let info = { sigs = Hashtbl.create 8; envs = Hashtbl.create 8 } in
  List.iter
    (fun (r : Routine.t) ->
      Hashtbl.replace info.sigs r.Routine.name
        {
          param_req = Array.make (List.length r.Routine.params) Unknown;
          param_tys = Array.make (List.length r.Routine.params) Unknown;
          ret_ty = Unknown;
          returns = R_unknown;
        };
      Hashtbl.replace info.envs r.Routine.name
        (Array.make (max 1 r.Routine.next_reg) Unknown))
    (Program.routines p);
  let routines = List.map (fun r -> (r, free_params r)) (Program.routines p) in
  let changed = ref true in
  (* Monotone over a finite lattice: terminates. *)
  while !changed do
    changed := false;
    one_round changed routines info
  done;
  info

(* ------------------------------------------------------------------ *)
(* Reporting                                                          *)
(* ------------------------------------------------------------------ *)

let check (info : info) (r : Routine.t) =
  let name = r.Routine.name in
  let env =
    match Hashtbl.find_opt info.envs name with
    | Some e -> e
    | None -> [||]
  in
  let diags = ref [] in
  let severity rule =
    match Rules.find rule with
    | Some ru -> ru.Rules.severity
    | None -> Diag.Error
  in
  let report ~rule ?block ?instr fmt =
    Printf.ksprintf
      (fun msg ->
        diags :=
          Diag.make ~rule ~severity:(severity rule) ~routine:name ?block
            ?instr msg
          :: !diags)
      fmt
  in
  (* Only definitely-known wrong types are reported; [Unknown] (e.g. a
     load result) and [Conflict] (already reported once as T006) stay
     silent so one root cause yields one diagnostic. *)
  let check_use ~block ~instr (u, want, rule) =
    match env_get env u with
    | Known got when not (Ty.equal got want) ->
      report ~rule ~block ~instr "r%d has type %s where %s is required" u
        (Ty.to_string got) (Ty.to_string want)
    | _ -> ()
  in
  (* T006: one report per conflicting register, at its first definition. *)
  let conflict_reported = Hashtbl.create 4 in
  let alloca_init = Hashtbl.create 4 in
  Cfg.iter_blocks
    (fun b ->
      let block = b.Block.id in
      List.iteri
        (fun instr i ->
          List.iter
            (fun c -> check_use ~block ~instr c)
            (use_constraints i);
          (match Instr.def i with
          | Some d
            when ty_equal (env_get env d) Conflict
                 && not (Hashtbl.mem conflict_reported d) ->
            Hashtbl.replace conflict_reported d ();
            report ~rule:"T006" ~block ~instr
              "r%d is defined with conflicting types" d
          | _ -> ());
          match i with
          | Instr.Alloca { dst; init; _ } ->
            Hashtbl.replace alloca_init dst (Value.ty init)
          | Instr.Store { addr; src } -> begin
            (* T012: the address is (a copy of) exactly one allocation
               whose element type disagrees with the stored value. *)
            match (Hashtbl.find_opt alloca_init addr, env_get env src) with
            | Some elem, Known got when not (Ty.equal elem got) ->
              report ~rule:"T012" ~block ~instr
                "store of %s into an allocation of %s elements"
                (Ty.to_string got) (Ty.to_string elem)
            | _ -> ()
          end
          | Instr.Phi { dst; args } ->
            let joined =
              List.fold_left
                (fun acc (_, a) -> join acc (env_get env a))
                Unknown args
            in
            if ty_equal joined Conflict then
              report ~rule:"T005" ~block ~instr
                "phi for r%d joins arguments of conflicting types (%s)" dst
                (String.concat ", "
                   (List.map
                      (fun (p, a) ->
                        Printf.sprintf "B%d: r%d %s" p a
                          (ty_to_string (env_get env a)))
                      args))
          | Instr.Call { dst; callee; args } -> begin
            match callee with
            | "emit" ->
              if List.length args <> 1 then
                report ~rule:"T007" ~block ~instr
                  "emit expects 1 argument, got %d" (List.length args)
            | _ -> begin
              match Hashtbl.find_opt info.sigs callee with
              | None ->
                report ~rule:"T008" ~block ~instr
                  "call to unknown routine %s" callee
              | Some s ->
                let want = Array.length s.param_tys in
                let got = List.length args in
                if got <> want then
                  report ~rule:"T007" ~block ~instr
                    "%s expects %d argument%s, got %d" callee want
                    (if want = 1 then "" else "s")
                    got;
                List.iteri
                  (fun k a ->
                    if k < want then
                      match (s.param_req.(k), env_get env a) with
                      | Known p, Known g when not (Ty.equal p g) ->
                        report ~rule:"T009" ~block ~instr
                          "argument %d of %s: r%d has type %s where %s is \
                           required"
                          k callee a (Ty.to_string g) (Ty.to_string p)
                      | _ -> ())
                  args;
                match dst with
                | Some d when returns_equal s.returns R_none ->
                  report ~rule:"T010" ~block ~instr
                    "r%d takes the result of %s, which returns none" d
                    callee
                | _ -> ()
            end
          end
          | _ -> ())
        b.Block.instrs;
      List.iter
        (fun c -> check_use ~block ~instr:(List.length b.Block.instrs) c)
        (term_constraints b.Block.term))
    r.Routine.cfg;
  (* T011: inconsistent returns across the routine's [Ret] sites. *)
  (match Hashtbl.find_opt info.sigs name with
  | Some s ->
    if returns_equal s.returns R_mixed then
      report ~rule:"T011"
        "some return sites yield a value and some do not";
    if ty_equal s.ret_ty Conflict then
      report ~rule:"T011" "return sites yield conflicting types"
  | None -> ());
  List.sort Diag.compare !diags
