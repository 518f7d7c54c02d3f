(** Pass-sequence bisection over the harness. See the interface. *)

open Epre_ir

type failure = {
  index : int;
  pass : string;
  routine : string;
  reason : Harness.reason;
  delta : (string * string) list;
}

(* Line diff by longest common subsequence; routines are small enough that
   the quadratic table is irrelevant. *)
let diff_lines before after =
  let a = Array.of_list (String.split_on_char '\n' before) in
  let b = Array.of_list (String.split_on_char '\n' after) in
  let n = Array.length a and m = Array.length b in
  let lcs = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      lcs.(i).(j) <-
        (if a.(i) = b.(j) then 1 + lcs.(i + 1).(j + 1)
         else max lcs.(i + 1).(j) lcs.(i).(j + 1))
    done
  done;
  let buf = Buffer.create 256 in
  let emit tag line = Buffer.add_string buf (tag ^ line ^ "\n") in
  let rec walk i j =
    if i < n && j < m && a.(i) = b.(j) then (
      emit "  " a.(i);
      walk (i + 1) (j + 1))
    else if i < n && (j = m || lcs.(i + 1).(j) >= lcs.(i).(j + 1)) then (
      emit "- " a.(i);
      walk (i + 1) j)
    else if j < m then (
      emit "+ " b.(j);
      walk i (j + 1))
  in
  walk 0 0;
  Buffer.contents buf

let run ?(fuel = Epre_interp.Interp.default_fuel) ~passes (prog : Program.t) =
  let config =
    { Harness.validation = Harness.Exec; fuel; keep_going = false; audit = false }
  in
  (* [dump] fires once per (pass, routine) application, in pass-major
     order, so the count at the failure locates the culprit pass. *)
  let applications = ref 0 in
  match
    Harness.supervise ~dump:(fun _ _ -> incr applications) config ~passes
      (Program.copy prog)
  with
  | _records -> None
  | exception Harness.Supervision_failed record ->
    let reason =
      match record.Harness.outcome with
      | Harness.Rolled_back reason -> reason
      | Harness.Passed -> assert false
    in
    let index = (!applications - 1) / List.length (Program.routines prog) in
    let culprit = List.nth passes index in
    (* The supervised run rolled the culprit back, so replay for the
       delta: the known-good prefix on a fresh copy, then the culprit
       over each routine up to the failing one. *)
    let p = Program.copy prog in
    ignore
      (Harness.supervise { config with validation = Harness.Off }
         ~passes:(List.filteri (fun i _ -> i < index) passes) p);
    let rec apply = function
      | [] -> []
      | (r : Routine.t) :: rest ->
        let before = Pp.routine_to_string r in
        (try culprit.Harness.run r with _ -> ());
        let after = Pp.routine_to_string r in
        let changed =
          if before = after then []
          else [ (r.Routine.name, diff_lines before after) ]
        in
        if r.Routine.name = record.Harness.routine then changed
        else changed @ apply rest
    in
    Some
      { index; pass = record.Harness.pass; routine = record.Harness.routine;
        reason; delta = apply (Program.routines p) }

let pp_failure ppf f =
  Format.fprintf ppf "minimal failing prefix: %d pass%s; culprit: #%d %s (routine %s)@."
    (f.index + 1) (if f.index = 0 then "" else "es") f.index f.pass f.routine;
  Format.fprintf ppf "reason: %s@." (Harness.reason_to_string f.reason);
  List.iter
    (fun (name, diff) ->
      Format.fprintf ppf "@.--- %s before %s@.+++ %s after  %s@.%s" name f.pass
        name f.pass diff)
    f.delta
