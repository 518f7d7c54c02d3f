(** The pass registry: every optimizer pass under its command-line name.

    The paper's optimizer "is structured as a sequence of passes, where
    each pass is a Unix filter that consumes and produces ILOC ... its
    flexibility makes it ideal for experimentation". This registry is our
    equivalent: `eprec compile --passes reassociate,gvn,pre,...` composes
    arbitrary sequences, and the levels, the paper experiments and the
    examples are spelled in the same names ([Pipeline.table] runs them). *)

open Epre_ir

type pass = {
  name : string;
  description : string;
  run : Routine.t -> unit;
}

let all =
  List.map
    (fun (e : Pipeline.entry) ->
      { name = e.name;
        description = e.description;
        run = (fun r -> e.step (Pipeline.fresh_stats r.Routine.name) r) })
    Pipeline.table
  (* Fault-injection passes: corrupt the IR on purpose, to exercise the
     supervision harness. Seeded via [Epre_harness.Chaos.default_seed]. *)
  @ List.map
      (fun k ->
        { name = Epre_harness.Chaos.name k;
          description = Epre_harness.Chaos.description k;
          run = (fun r -> Epre_harness.Chaos.run k r) })
      Epre_harness.Chaos.all_kinds

let is_chaos p = String.length p.name >= 6 && String.sub p.name 0 6 = "chaos:"

(** A registry pass as the harness sees it. *)
let to_named p = { Epre_harness.Harness.pass_name = p.name; run = p.run }

let find name = List.find_opt (fun p -> p.name = name) all

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
