(** The pass registry: every optimizer pass under its command-line name.

    The paper's optimizer "is structured as a sequence of passes, where
    each pass is a Unix filter that consumes and produces ILOC ... its
    flexibility makes it ideal for experimentation". This registry is our
    equivalent: `eprec compile --passes reassociate,gvn,pre,...` composes
    arbitrary sequences, and the levels, the paper experiments and the
    examples are spelled in the same names ([Pipeline.table] runs them). *)

open Epre_ir

let all =
  Pipeline.table
  (* Fault-injection passes: corrupt the IR on purpose, to exercise the
     supervision harness. Seeded via [Epre_harness.Chaos.default_seed]. *)
  @ List.map
      (fun k ->
        { Pipeline.name = Epre_harness.Chaos.name k;
          description = Epre_harness.Chaos.description k;
          step = (fun _ r -> Epre_harness.Chaos.run k r);
          checks = Epre_harness.Harness.no_checks })
      Epre_harness.Chaos.all_kinds

let is_chaos (p : Pipeline.entry) =
  String.length p.name >= 6 && String.sub p.name 0 6 = "chaos:"

(** A registry pass as the harness sees it: its statistics discarded. *)
let to_named (p : Pipeline.entry) =
  { Epre_harness.Harness.pass_name = p.name;
    run = (fun r -> p.step (Pipeline.fresh_stats r.Routine.name) r);
    checks = p.checks }

let find name = List.find_opt (fun (p : Pipeline.entry) -> p.name = name) all

(** Resolve a comma-separated sequence; [Error name] on the first unknown
    pass. *)
let parse_sequence spec =
  let names =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | n :: rest -> begin
      match find n with
      | Some p -> go (p :: acc) rest
      | None -> Error n
    end
  in
  go [] names

let named spec =
  match parse_sequence spec with
  | Ok passes -> List.map to_named passes
  | Error name -> invalid_arg ("Passes.named: unknown pass " ^ name)
