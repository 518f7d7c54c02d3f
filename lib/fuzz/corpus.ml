(** Corpus persistence. See the interface for the on-disk layout. *)

module Harness = Epre_harness.Harness
module Report = Epre_harness.Report
module Tjson = Epre_telemetry.Tjson

type entry = {
  id : string;
  seed : int;
  level : Epre.Pipeline.level;
  cls : Oracle.failure_class;
  chaos : string option;
  reduction : Reduce.stats option;
  record : Harness.record;
  repro_source : string;
}

let entry_id ~seed ~level ~cls =
  Printf.sprintf "seed%d-%s-%s" seed
    (Epre.Pipeline.level_to_string level)
    (Oracle.class_to_string cls)

(* ------------------------------------------------------------------ *)
(* Filesystem helpers (no unix dependency — [Sys] suffices)            *)

let rec mkdir_p dir =
  if Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* Save                                                                *)

let meta_json entry =
  Tjson.Obj
    ([ ("schema", Tjson.Int 2);
       ("seed", Tjson.Int entry.seed);
       ("level", Tjson.Str (Epre.Pipeline.level_to_string entry.level));
       ("class", Tjson.Str (Oracle.class_to_string entry.cls)) ]
    @ (match entry.chaos with
      | None -> []
      | Some c -> [ ("chaos", Tjson.Str c) ])
    @ (match entry.reduction with
      | None -> []
      | Some s -> [ ("reduction", Reduce.stats_to_tjson s) ])
    @ [ ("record", Report.record_to_tjson entry.record) ])

let save ~dir ~original entry =
  let entry_dir = Filename.concat dir entry.id in
  mkdir_p entry_dir;
  write_file (Filename.concat entry_dir "repro.iloc") entry.repro_source;
  write_file (Filename.concat entry_dir "original.mf") original;
  write_file
    (Filename.concat entry_dir "meta.json")
    (Tjson.to_string (meta_json entry) ^ "\n");
  entry_dir

(* ------------------------------------------------------------------ *)
(* Load                                                                *)

let ( let* ) = Result.bind

let field name json =
  match Tjson.member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "meta.json: missing %S" name)

let as_int name = function
  | Tjson.Int n -> Ok n
  | _ -> Error (Printf.sprintf "meta.json: %S is not an int" name)

let as_str name = function
  | Tjson.Str s -> Ok s
  | _ -> Error (Printf.sprintf "meta.json: %S is not a string" name)

(* Inverse of [Harness.reason_to_string], by prefix. *)
let reason_of_string s =
  let strip prefix =
    let n = String.length prefix in
    if String.length s >= n && String.sub s 0 n = prefix then
      Some (String.sub s n (String.length s - n))
    else None
  in
  match strip "pass raised: " with
  | Some m -> Harness.Pass_exception m
  | None -> (
    match strip "ill-formed IR: " with
    | Some m -> Harness.Ir_violation m
    | None -> (
      match strip "behaviour mismatch: " with
      | Some m -> Harness.Behaviour_mismatch m
      | None -> Harness.Behaviour_mismatch s))

let record_of_tjson json =
  let* pass = Result.bind (field "pass" json) (as_str "pass") in
  let* routine = Result.bind (field "routine" json) (as_str "routine") in
  let* outcome_s = Result.bind (field "outcome" json) (as_str "outcome") in
  let* outcome =
    match outcome_s with
    | "ok" -> Ok Harness.Passed
    | "rolled-back" ->
      let reason =
        match Tjson.member "reason" json with
        | Some (Tjson.Str m) -> reason_of_string m
        | _ -> Harness.Pass_exception "unknown"
      in
      Ok (Harness.Rolled_back reason)
    | other -> Error (Printf.sprintf "meta.json: unknown outcome %S" other)
  in
  let duration_ms =
    match Tjson.member "duration_ms" json with
    | Some (Tjson.Float f) -> f
    | Some (Tjson.Int n) -> float_of_int n
    | _ -> 0.
  in
  let meta =
    match json with
    | Tjson.Obj fields ->
      List.filter
        (fun (k, _) ->
          not
            (List.mem k [ "pass"; "routine"; "outcome"; "reason"; "duration_ms" ]))
        fields
    | _ -> []
  in
  Ok { Harness.pass; routine; outcome; duration_ms; meta }

let reduction_of_tjson json =
  let int name =
    match Tjson.member name json with Some (Tjson.Int n) -> n | _ -> 0
  in
  { Reduce.original_instrs = int "original_instrs";
    reduced_instrs = int "reduced_instrs";
    rounds = int "rounds";
    tried = int "tried";
    accepted = int "accepted" }

let load dir =
  let meta_path = Filename.concat dir "meta.json" in
  let repro_path = Filename.concat dir "repro.iloc" in
  if not (Sys.file_exists meta_path) then
    Error (Printf.sprintf "%s: no meta.json" dir)
  else if not (Sys.file_exists repro_path) then
    Error (Printf.sprintf "%s: no repro.iloc" dir)
  else
    let* json =
      Result.map_error
        (fun m -> Printf.sprintf "%s: %s" meta_path m)
        (Tjson.parse (read_file meta_path))
    in
    let* seed = Result.bind (field "seed" json) (as_int "seed") in
    let* level_s = Result.bind (field "level" json) (as_str "level") in
    let* level =
      match Epre.Pipeline.level_of_string level_s with
      | Some l -> Ok l
      | None -> Error (Printf.sprintf "meta.json: unknown level %S" level_s)
    in
    let* cls_s = Result.bind (field "class" json) (as_str "class") in
    let* cls =
      match Oracle.class_of_string cls_s with
      | Some c -> Ok c
      | None -> Error (Printf.sprintf "meta.json: unknown class %S" cls_s)
    in
    let chaos =
      match Tjson.member "chaos" json with
      | Some (Tjson.Str c) -> Some c
      | _ -> None
    in
    let reduction =
      Option.map reduction_of_tjson (Tjson.member "reduction" json)
    in
    let* record = Result.bind (field "record" json) record_of_tjson in
    Ok
      { id = Filename.basename dir; seed; level; cls; chaos; reduction; record;
        repro_source = read_file repro_path }

let list ~dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun name -> Sys.is_directory (Filename.concat dir name))
    |> List.sort String.compare
