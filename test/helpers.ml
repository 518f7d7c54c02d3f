(** Shared helpers for the test suite. *)

open Epre_ir

let compile source =
  try Epre_frontend.Frontend.compile_string source with
  | Epre_frontend.Frontend.Error { line; message } ->
    Alcotest.failf "compilation failed at line %d: %s" line message

let run ?(entry = "main") ?(args = []) prog =
  try Epre_interp.Interp.run prog ~entry ~args with
  | Epre_interp.Interp.Runtime_error msg -> Alcotest.failf "runtime error: %s" msg

let return_value result =
  match result.Epre_interp.Interp.return_value with
  | Some v -> v
  | None -> Alcotest.fail "expected a return value"

let run_int ?entry ?args prog = Value.to_int (return_value (run ?entry ?args prog))

let run_float ?entry ?args prog = Value.to_float (return_value (run ?entry ?args prog))

let dynamic_ops ?entry ?args prog =
  Epre_interp.Counts.total (run ?entry ?args prog).Epre_interp.Interp.counts

let check_value_close what a b =
  if not (Epre_harness.Harness.value_close a b) then
    Alcotest.failf "%s: %s <> %s" what (Value.to_string a) (Value.to_string b)

(* The master correctness check: an optimized copy must produce the same
   return value and the same [emit] trace as the original. *)
let check_same_behaviour ?entry ?args ~what original transformed =
  let r0 = run ?entry ?args original in
  let r1 = run ?entry ?args transformed in
  (match r0.Epre_interp.Interp.return_value, r1.Epre_interp.Interp.return_value with
  | Some a, Some b -> check_value_close (what ^ ": return value") a b
  | None, None -> ()
  | Some _, None | None, Some _ -> Alcotest.failf "%s: return arity changed" what);
  let t0 = r0.Epre_interp.Interp.trace and t1 = r1.Epre_interp.Interp.trace in
  if List.length t0 <> List.length t1 then
    Alcotest.failf "%s: emit trace length %d <> %d" what (List.length t0)
      (List.length t1);
  List.iter2 (fun a b -> check_value_close (what ^ ": emit") a b) t0 t1

let apply_pass pass prog =
  let p = Program.copy prog in
  List.iter (fun r -> pass r) (Program.routines p);
  p

(* Optimize a copy at a level and check behaviour is preserved; returns the
   optimized program. *)
let check_level ?entry ?args ~level prog =
  let p, _ = Epre.Pipeline.optimized_copy ~level prog in
  check_same_behaviour ?entry ?args
    ~what:(Epre.Pipeline.level_to_string level)
    prog p;
  p

let contains_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* A fresh path under the temp dir, cleared first: a test never sees
   state left by an earlier (crashed) run. *)
let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "eprec-test-%d-%d" (Unix.getpid ()) !n)
    in
    let rec rm p =
      if Sys.file_exists p then
        if Sys.is_directory p then begin
          Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
    in
    rm dir;
    dir

let qcheck_case ?(count = 100) name law gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name:(name ^ ": " ^ law) gen prop)
