(** The rule catalog. See the interface. *)

type t = { id : string; severity : Diag.severity; title : string }

let e id title = { id; severity = Diag.Error; title }

let w id title = { id; severity = Diag.Warn; title }

let all =
  [
    (* Structural / CFG *)
    e "V001" "entry block missing from the CFG";
    e "V002" "terminator targets a missing block";
    e "V003" "register operand out of the routine's register range";
    e "V004" "phi instruction after a non-phi";
    e "V005" "phi arguments disagree with the block's CFG predecessors";
    e "V006" "phi instruction outside SSA form";
    e "V007" "SSA well-formedness (single definitions, dominance; Ssa_check)";
    e "V008" "register read with no definition on some path from the entry";
    w "V009" "block unreachable from the entry";
    w "V010" "no reachable return terminator (infinite loop)";
    (* Types *)
    e "T001" "binary operator applied to operands of the wrong type";
    e "T002" "unary operator applied to an operand of the wrong type";
    e "T003" "load/store address is not an integer";
    e "T004" "cbr condition is not an integer";
    e "T005" "phi arguments carry conflicting types";
    e "T006" "register defined with conflicting types";
    e "T007" "call arity disagrees with the callee's parameter count";
    e "T008" "call to a routine the program does not define";
    e "T009" "call argument type disagrees with the callee's parameter type";
    e "T010" "call result expected from a routine that returns none, or of the wrong type";
    e "T011" "conflicting return types within one routine";
    w "T012" "store into an allocation of a different element type";
    (* Lints *)
    w "L001" "critical edge left unsplit";
    w "L002" "pure instruction whose result is never used";
    w "L003" "dead or self copy";
    w "L004" "empty forwarding block";
    w "L005" "redundant phi (all arguments identical)";
    w "L006" "dead phi (pruned-SSA violation)";
    w "L007" "reassociable operands out of rank order";
    (* Audit: static PRE effectiveness (the redundancy auditor) *)
    e "A001" "fully redundant expression evaluation survives";
    e "A002" "partially redundant evaluation a safe placement could remove";
    w "A003" "code motion added a speculative (not down-safe) evaluation";
    w "A004" "a path's evaluation count of an expression increased";
    w "A005" "peak register pressure increased";
    w "A006" "long-lived expression temporary spans many blocks";
    w "A007" "an evaluation survives that a congruent evaluation dominates";
  ]

let find id = List.find_opt (fun r -> r.id = id) all

let mem id = Option.is_some (find id)

let lint_ids =
  List.filter_map
    (fun r -> if String.length r.id > 0 && r.id.[0] = 'L' then Some r.id else None)
    all

let parse_spec spec =
  let ids =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | id :: rest -> if mem id then go (id :: acc) rest else Error id
  in
  go [] ids
